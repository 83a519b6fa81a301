/**
 * @file
 * Call-graph construction and contract rules.
 *
 * analyze() merges annotation flags across declaration/definition
 * groups, then walks breadth-first from every HAMS_HOT_PATH root.
 * Each visited function body is scanned exactly once: the scan both
 * extracts call edges (receiver types resolved through member/local
 * declarations, one level of return-type chaining, and CHA for
 * virtual dispatch) and applies the four rule families. The walk
 * stops at HAMS_COLD_PATH functions — calling one from hot code is
 * the audited boundary — and statement/function suppressions demote
 * findings to `suppressed` (kept in the report for the audit trail).
 * An annotation the parser could attach to no declaration is reported
 * as [annotation]: the function it was meant for is silently unchecked.
 */

#include "hamslint.hh"

#include <algorithm>
#include <deque>

namespace hamslint {

namespace {

const std::set<std::string> kGrowthMethods = {
    "push_back", "emplace_back", "emplace", "emplace_front",
    "push_front", "insert",      "resize",  "assign",
    "append",    "push",
};

const std::set<std::string> kAllocFns = {
    "malloc", "calloc", "realloc", "aligned_alloc",
    "posix_memalign", "strdup", "free", "make_unique", "make_shared",
};

const std::set<std::string> kClockTypes = {
    "system_clock", "steady_clock", "high_resolution_clock",
    "random_device",
};

const std::set<std::string> kClockFns = {
    "time",   "clock_gettime", "gettimeofday", "rand",
    "srand",  "random",        "drand48",      "lrand48",
    "getrandom",
};

const std::set<std::string> kCallbackSinks = {
    "schedule", "scheduleAt", "scheduleCompletion",
};

const std::set<std::string> kStmtKeywords = {
    "return", "if", "while", "for", "switch", "case", "goto",
    "delete", "new", "throw", "else", "do", "break", "continue",
};

bool
isUnordered(const std::string& type)
{
    return type.find("unordered_map") != std::string::npos ||
           type.find("unordered_set") != std::string::npos;
}

bool
isGrowableStd(const std::string& type)
{
    static const char* kinds[] = {
        "std::vector<", "std::deque<",  "std::list<",
        "std::string",  "std::basic_string", "std::map<",
        "std::set<",    "std::multimap<", "std::multiset<",
        "std::queue<",  "std::priority_queue<", "std::stack<",
    };
    for (const char* k : kinds)
        if (type.find(k) != std::string::npos)
            return true;
    return false;
}

/** map/set (ordered or not) keyed on a pointer type. */
bool
isPtrKeyedAssoc(const std::string& type)
{
    for (const char* k : {"map<", "set<"}) {
        std::size_t p = type.find(k);
        if (p == std::string::npos)
            continue;
        p += std::string(k).size();
        int depth = 0;
        for (std::size_t i = p; i < type.size(); ++i) {
            char c = type[i];
            if (c == '<')
                ++depth;
            else if (c == '>' && depth-- == 0)
                break;
            else if (c == ',' && depth == 0)
                break;
            else if (c == '*' && depth == 0)
                return true;
        }
    }
    return false;
}

/** First top-level template argument of e.g. "std::vector<T>". */
std::string
templateArg(const std::string& type)
{
    std::size_t p = type.find('<');
    if (p == std::string::npos)
        return "";
    int depth = 0;
    std::size_t start = p + 1;
    for (std::size_t i = start; i < type.size(); ++i) {
        char c = type[i];
        if (c == '<')
            ++depth;
        else if (c == '>') {
            if (depth-- == 0)
                return type.substr(start, i - start);
        } else if (c == ',' && depth == 0)
            return type.substr(start, i - start);
    }
    return "";
}

/** Normalize a type for class lookup: strip const/refs/ptr-wrappers. */
std::string
stripType(std::string t)
{
    auto eraseAll = [&](const std::string& pat) {
        std::size_t p;
        while ((p = t.find(pat)) != std::string::npos)
            t.erase(p, pat.size());
    };
    eraseAll("const ");
    eraseAll("const&");
    eraseAll("hams::");
    eraseAll("struct ");
    eraseAll("class ");
    for (const char* w : {"std::unique_ptr<", "std::shared_ptr<"}) {
        if (t.rfind(w, 0) == 0) {
            t = templateArg(t);
            break;
        }
    }
    while (!t.empty() && (t.back() == '&' || t.back() == '*' ||
                          t.back() == ' ' || t.back() == ')'))
        t.pop_back();
    while (!t.empty() && t.front() == ' ')
        t.erase(t.begin());
    // "const" with no trailing space after joinType of e.g. "const T"
    if (t.rfind("const", 0) == 0 && t.size() > 5 && t[5] == ' ')
        t.erase(0, 6);
    return t;
}

struct Scanner
{
    Model& m;
    Function& fn;
    const std::vector<Token>& toks;
    AnalysisResult* res; //!< null = edges only

    std::map<std::string, std::string> locals;
    /** [begin,end] token intervals covered by a statement suppression,
     *  with the reason. */
    std::vector<std::pair<std::pair<std::size_t, std::size_t>,
                          std::string>> suppressions;
    struct Pending
    {
        std::size_t tok;
        int line;
        std::string rule, message;
    };
    std::vector<Pending> pending;

    Scanner(Model& model, Function& f, AnalysisResult* r)
        : m(model), fn(f), toks(model.files[f.fileIdx].tokens), res(r)
    {
    }

    void
    report(std::size_t tokIdx, const std::string& rule,
           const std::string& message)
    {
        if (res)
            pending.push_back({tokIdx, toks[tokIdx].line, rule, message});
    }

    // ---------------------------------------------------- type lookup

    std::string
    memberType(const std::string& cls, const std::string& name,
               int depth = 0) const
    {
        if (depth > 6)
            return "";
        auto ci = m.classes.find(cls);
        if (ci == m.classes.end())
            return "";
        auto it = ci->second.members.find(name);
        if (it != ci->second.members.end())
            return it->second;
        for (const auto& base : ci->second.bases) {
            std::string t = memberType(base, name, depth + 1);
            if (!t.empty())
                return t;
        }
        return "";
    }

    std::string
    identType(const std::string& name) const
    {
        auto it = locals.find(name);
        if (it != locals.end())
            return it->second;
        if (!fn.cls.empty())
            return memberType(fn.cls, name);
        return "";
    }

    /** Return type of method @p name on class @p cls (walking bases),
     *  or of a free function. */
    std::string
    returnTypeOf(const std::string& cls, const std::string& name) const
    {
        std::string c = cls;
        for (int hop = 0; hop < 6; ++hop) {
            auto it = m.byQualName.find(c + "::" + name);
            if (it != m.byQualName.end() && !it->second.empty())
                return m.functions[it->second.front()].returnType;
            auto ci = m.classes.find(c);
            if (ci == m.classes.end() || ci->second.bases.empty())
                break;
            c = ci->second.bases.front();
        }
        return "";
    }

    std::size_t
    matchBackward(std::size_t close, const char* openCh,
                  const char* closeCh) const
    {
        int depth = 0;
        for (std::size_t j = close;; --j) {
            if (toks[j].kind == Tok::Punct) {
                if (toks[j].text == closeCh)
                    ++depth;
                else if (toks[j].text == openCh && --depth == 0)
                    return j;
            }
            if (j == 0)
                break;
        }
        return 0;
    }

    /** Type of the expression ending at token @p end (inclusive). */
    std::string
    chainType(std::size_t end, int depth = 0) const
    {
        if (depth > 4 || end <= fn.bodyBegin)
            return "";
        const Token& t = toks[end];
        if (t.kind == Tok::Ident) {
            if (t.text == "this")
                return fn.cls;
            if (end > 0 && (toks[end - 1].text == "." ||
                            toks[end - 1].text == "->")) {
                std::string base =
                    stripType(chainType(end - 2, depth + 1));
                if (base.empty())
                    return "";
                return memberType(base, t.text);
            }
            if (end > 0 && toks[end - 1].text == "::")
                return "";
            return identType(t.text);
        }
        if (t.text == ")") {
            std::size_t open = matchBackward(end, "(", ")");
            if (open == 0 || open <= fn.bodyBegin)
                return "";
            if (toks[open - 1].kind != Tok::Ident)
                return "";
            std::string meth = toks[open - 1].text;
            if (open >= 2 && (toks[open - 2].text == "." ||
                              toks[open - 2].text == "->")) {
                std::string recv =
                    stripType(chainType(open - 3, depth + 1));
                if (recv.empty())
                    return "";
                return returnTypeOf(recv, meth);
            }
            if (open >= 2 && toks[open - 2].text == "::")
                return "";
            if (!fn.cls.empty()) {
                std::string rt = returnTypeOf(fn.cls, meth);
                if (!rt.empty())
                    return rt;
            }
            return returnTypeOf("", meth);
        }
        if (t.text == "]") {
            std::size_t open = matchBackward(end, "[", "]");
            if (open == 0 || open <= fn.bodyBegin)
                return "";
            std::string cont = chainType(open - 1, depth + 1);
            if (cont.find("vector<") != std::string::npos ||
                cont.find("array<") != std::string::npos ||
                cont.find("deque<") != std::string::npos)
                return templateArg(cont);
            return "";
        }
        return "";
    }

    /** Source-ish text of the chain ending at @p end, for messages. */
    std::string
    chainText(std::size_t end) const
    {
        std::size_t b = end;
        int guard = 0;
        while (b > fn.bodyBegin && guard++ < 8) {
            const std::string& p = toks[b - 1].text;
            if (p == "." || p == "->" || p == "::")
                b -= 2;
            else
                break;
        }
        std::string out;
        for (std::size_t j = b; j <= end; ++j)
            out += toks[j].text;
        return out;
    }

    // -------------------------------------------------------- lambdas

    /** Parse a capture list starting at '[' (returns index after ']');
     *  applies the 48-byte InlineFunction budget when @p atSink. */
    std::size_t
    captureList(std::size_t lb, bool atSink)
    {
        std::size_t rb = lb;
        int depth = 0;
        for (std::size_t j = lb; j < fn.bodyEnd; ++j) {
            if (toks[j].kind != Tok::Punct)
                continue;
            if (toks[j].text == "[")
                ++depth;
            else if (toks[j].text == "]" && --depth == 0) {
                rb = j;
                break;
            }
        }
        if (rb == lb)
            return lb + 1;
        if (!atSink)
            return rb + 1;

        std::size_t bytes = 0;
        int items = 0;
        std::size_t j = lb + 1;
        while (j < rb) {
            // One capture item up to a top-level ','.
            std::size_t itemEnd = j;
            int d = 0;
            while (itemEnd < rb) {
                const std::string& x = toks[itemEnd].text;
                if (x == "(" || x == "{" || x == "[")
                    ++d;
                else if (x == ")" || x == "}" || x == "]")
                    --d;
                else if (x == "," && d == 0)
                    break;
                ++itemEnd;
            }
            ++items;
            bool byRef = toks[j].text == "&";
            bool deref = toks[j].text == "*";
            std::size_t id = j + (byRef || deref ? 1 : 0);
            if (itemEnd == j + 1 &&
                (toks[j].text == "=" || toks[j].text == "&")) {
                report(j, "callback-capture",
                       std::string("default capture '") + toks[j].text +
                           "' on an event-callback site: the capture "
                           "set (and its size) is indeterminate — "
                           "capture {this, ctx} explicitly");
            } else if (deref && id < itemEnd &&
                       toks[id].text == "this") {
                report(j, "callback-capture",
                       "capture of *this copies the whole object into "
                       "the callback — capture this instead");
            } else if (!byRef && id < itemEnd &&
                       toks[id].kind == Tok::Ident) {
                bool initCapture = id + 1 < itemEnd &&
                                   toks[id + 1].text == "=";
                std::string raw = initCapture
                                      ? std::string()
                                      : identType(toks[id].text);
                // A raw-pointer local ("DataCtx* dctx") captured by
                // value is the approved pooled-context idiom: 8 bytes.
                bool pointer = raw.find('*') != std::string::npos;
                std::string t = pointer ? std::string() : stripType(raw);
                bool stdObject =
                    t.find("std::") != std::string::npos &&
                    (t.find('<') != std::string::npos ||
                     t.find("string") != std::string::npos);
                if (!t.empty() && (m.classes.count(t) || stdObject)) {
                    report(id, "callback-capture",
                           "by-value capture of object '" +
                               toks[id].text + "' (" + t +
                               ") — size unbounded by the 48-byte "
                               "InlineFunction budget; capture a "
                               "pooled-context pointer instead");
                } else {
                    bytes += 8;
                }
            } else {
                bytes += 8; // &x, this, x = scalar-init
            }
            j = itemEnd + 1;
        }
        if (bytes > 48)
            report(lb, "callback-capture",
                   std::to_string(items) + " captures / >= " +
                       std::to_string(bytes) +
                       " bytes exceed the 48-byte InlineFunction "
                       "inline budget — move state into a pooled "
                       "context and capture {this, ctx}");
        return rb + 1;
    }

    // ----------------------------------------------------------- scan

    void
    run()
    {
        struct Frame
        {
            std::string call; //!< callee name ("" = grouping paren)
            bool isFor = false;
            bool sawSemiOrQuery = false;
        };
        std::vector<Frame> frames;
        std::size_t stmtStart = fn.bodyBegin + 1;

        auto typeish = [&](std::size_t b, std::size_t e) {
            if (b >= e || toks[b].kind != Tok::Ident ||
                kStmtKeywords.count(toks[b].text))
                return false;
            for (std::size_t j = b; j < e; ++j) {
                const Token& x = toks[j];
                if (x.kind == Tok::Ident)
                    continue;
                if (x.kind == Tok::Punct &&
                    (x.text == "::" || x.text == "<" || x.text == ">" ||
                     x.text == "*" || x.text == "&" || x.text == ","))
                    continue;
                return false;
            }
            return true;
        };

        auto addEdge = [&](const std::string& cls,
                           const std::string& name, bool resolved,
                           int line) {
            fn.calls.push_back({cls, name, resolved, line});
        };

        for (std::size_t i = fn.bodyBegin + 1; i + 1 < fn.bodyEnd; ++i) {
            const Token& t = toks[i];

            if (t.kind == Tok::Punct) {
                if (t.text == "(") {
                    Frame f;
                    if (i > fn.bodyBegin &&
                        toks[i - 1].kind == Tok::Ident &&
                        !kStmtKeywords.count(toks[i - 1].text)) {
                        if (toks[i - 1].text == "for")
                            f.isFor = true;
                        else
                            f.call = toks[i - 1].text;
                    } else if (toks[i - 1].text == "for") {
                        f.isFor = true;
                    }
                    frames.push_back(f);
                    stmtStart = i + 1;
                    continue;
                }
                if (t.text == ")") {
                    if (!frames.empty())
                        frames.pop_back();
                    continue;
                }
                if (t.text == ";" || t.text == "{" || t.text == "}") {
                    if (t.text == ";" && !frames.empty())
                        frames.back().sawSemiOrQuery = true;
                    stmtStart = i + 1;
                    continue;
                }
                if (t.text == "?") {
                    if (!frames.empty())
                        frames.back().sawSemiOrQuery = true;
                    continue;
                }
                if (t.text == ",") {
                    stmtStart = i + 1;
                    continue;
                }
                if (t.text == ":" && !frames.empty() &&
                    frames.back().isFor &&
                    !frames.back().sawSemiOrQuery) {
                    // Range-for: resolve the sequence expression.
                    std::size_t e = i + 1;
                    int d = 0;
                    while (e + 1 < fn.bodyEnd) {
                        const std::string& x = toks[e + 1].text;
                        if (x == "(" || x == "[")
                            ++d;
                        else if (x == ")" && d-- == 0)
                            break;
                        else if (x == "]")
                            --d;
                        ++e;
                    }
                    std::string st = chainType(e);
                    if (isUnordered(st))
                        report(i, "determinism",
                               "range-for iteration over unordered "
                               "container '" + chainText(e) +
                                   "' visits elements in "
                                   "hash-layout order");
                    continue;
                }
                if (t.text == "[") {
                    // Lambda introducer? (expression position only)
                    const std::string& p = toks[i - 1].text;
                    bool exprPos =
                        toks[i - 1].kind == Tok::Punct
                            ? (p == "(" || p == "," || p == "{" ||
                               p == ";" || p == "=" || p == "?" ||
                               p == ":")
                            : toks[i - 1].text == "return";
                    if (exprPos) {
                        bool atSink = false;
                        for (const auto& f : frames)
                            if (kCallbackSinks.count(f.call))
                                atSink = true;
                        std::size_t after = captureList(i, atSink);
                        if (after > i + 1 && after + 1 < fn.bodyEnd &&
                            (toks[after].text == "(" ||
                             toks[after].text == "{"))
                            i = after - 1;
                        continue;
                    }
                    // Subscript: probe check on the base chain.
                    std::string bt = chainType(i - 1);
                    if (isUnordered(bt))
                        report(i, "hash-probe",
                               "operator[] on unordered container '" +
                                   chainText(i - 1) + "'");
                    else if (bt.find("std::map<") != std::string::npos)
                        report(i, "alloc",
                               "std::map operator[] on '" +
                                   chainText(i - 1) +
                                   "' may insert (node allocation)");
                    continue;
                }
                continue;
            }

            if (t.kind != Tok::Ident)
                continue;

            // ---- suppression markers
            if (t.text == "HAMS_LINT_SUPPRESS") {
                std::string reason;
                std::size_t j = i + 1;
                if (j < fn.bodyEnd && toks[j].text == "(" &&
                    j + 1 < fn.bodyEnd &&
                    toks[j + 1].kind == Tok::String &&
                    toks[j + 1].text.size() > 2)
                    reason = toks[j + 1].text.substr(
                        1, toks[j + 1].text.size() - 2);
                // Statement extent: to the ';' at relative depth 0 or
                // the end of a brace block opened at relative depth 0.
                std::size_t end = i;
                int pd = 0, bd = 0;
                for (std::size_t k = i + 1; k < fn.bodyEnd; ++k) {
                    const std::string& x = toks[k].text;
                    if (toks[k].kind != Tok::Punct)
                        continue;
                    if (x == "(" || x == "[")
                        ++pd;
                    else if (x == ")" || x == "]")
                        --pd;
                    else if (x == "{")
                        ++bd;
                    else if (x == "}") {
                        if (--bd == 0) {
                            end = k;
                            break;
                        }
                    } else if (x == ";" && pd == 0 && bd == 0) {
                        end = k;
                        break;
                    }
                }
                if (reason.empty())
                    report(i, "suppression",
                           "HAMS_LINT_SUPPRESS without a reason "
                           "string — every suppression must say why "
                           "the construct is within the discipline");
                else
                    suppressions.push_back({{i, end}, reason});
                continue;
            }

            // ---- allocation keywords / functions
            if (t.text == "new") {
                if (toks[i + 1].text != "(") // placement new is heap-free
                    report(i, "alloc", "operator new on the hot path");
                continue;
            }
            if (t.text == "delete") {
                report(i, "alloc", "operator delete on the hot path");
                continue;
            }
            if (kAllocFns.count(t.text) &&
                (toks[i + 1].text == "(" || toks[i + 1].text == "<")) {
                report(i, "alloc",
                       "call to " + t.text + " on the hot path");
                // fall through: also a call edge (none — not project)
                continue;
            }

            // ---- determinism hazards
            if (kClockTypes.count(t.text)) {
                report(i, "determinism",
                       "use of std::" + t.text +
                           " — wall-clock/entropy sources break "
                           "bit-reproducibility");
                continue;
            }
            if (kClockFns.count(t.text) && toks[i + 1].text == "(") {
                bool qualifiedMember =
                    i > fn.bodyBegin && (toks[i - 1].text == "." ||
                                         toks[i - 1].text == "->");
                bool nsQualified =
                    i > fn.bodyBegin + 1 && toks[i - 1].text == "::" &&
                    toks[i - 2].text != "std";
                if (!qualifiedMember && !nsQualified) {
                    report(i, "determinism",
                           "call to " + t.text +
                               "() — wall-clock/PRNG on the hot path");
                    continue;
                }
            }

            // ---- std::function
            if (t.text == "function" && i >= 2 &&
                toks[i - 1].text == "::" && toks[i - 2].text == "std") {
                report(i, "callback-capture",
                       "std::function on the hot path — captures "
                       ">16 bytes heap-allocate; use InlineFunction");
                continue;
            }

            // ---- local declarations
            std::size_t nx = i + 1;
            // Direct-init declarations ("std::vector<T> v(n)") look
            // like calls; require a complete type before the name
            // (":: name(" is a scoped call, not a declaration).
            bool ctorInit = nx < fn.bodyEnd &&
                            (toks[nx].text == "(" ||
                             toks[nx].text == "{") &&
                            toks[i - 1].text != "::";
            if (nx < fn.bodyEnd &&
                (toks[nx].text == "=" || toks[nx].text == ";" ||
                 toks[nx].text == ":" || ctorInit) &&
                i > stmtStart && typeish(stmtStart, i)) {
                std::string type = joinType(toks, stmtStart, i);
                // auto: try one level of rhs resolution.
                if (type.find("auto") != std::string::npos &&
                    toks[nx].text == "=") {
                    std::size_t e = nx + 1;
                    int d = 0;
                    while (e + 1 < fn.bodyEnd) {
                        const std::string& x = toks[e + 1].text;
                        if (x == "(" || x == "[")
                            ++d;
                        else if ((x == ";" || x == ",") && d == 0)
                            break;
                        else if (x == ")" || x == "]") {
                            if (d == 0)
                                break;
                            --d;
                        }
                        ++e;
                    }
                    std::string rt = chainType(e);
                    if (!rt.empty())
                        type = rt;
                }
                locals[t.text] = type;
                if (isUnordered(type))
                    report(i, "hash-probe",
                           "unordered container '" + t.text +
                               "' constructed on the hot path");
                if (isPtrKeyedAssoc(type))
                    report(i, "determinism",
                           "pointer-keyed ordered container '" +
                               t.text +
                               "' — iteration order depends on "
                               "allocation addresses");
                // A growable std container constructed by value with
                // a non-empty initializer heap-allocates on every
                // call. Default construction and reference/pointer
                // bindings are free and stay quiet.
                bool nonEmptyInit =
                    toks[nx].text == "=" ||
                    (ctorInit && nx + 1 < fn.bodyEnd &&
                     toks[nx + 1].text !=
                         (toks[nx].text == "(" ? ")" : "}"));
                bool byValue = type.find('&') == std::string::npos &&
                               type.find('*') == std::string::npos;
                if (nonEmptyInit && byValue && isGrowableStd(type) &&
                    !isUnordered(type))
                    report(i, "alloc",
                           "local " + stripType(type) + " '" + t.text +
                               "' constructed per call on the hot "
                               "path");
                continue;
            }

            // ---- calls and member references
            bool isCall = nx < fn.bodyEnd && toks[nx].text == "(";
            bool memberOf = i > fn.bodyBegin &&
                            (toks[i - 1].text == "." ||
                             toks[i - 1].text == "->");
            bool scoped = i > fn.bodyBegin && toks[i - 1].text == "::";

            if (!memberOf && !scoped) {
                // Base identifier of a chain: container discipline.
                std::string ty = identType(t.text);
                if (!ty.empty()) {
                    if (isUnordered(ty)) {
                        std::string use =
                            isCall ? "call through" : "use of";
                        report(i, "hash-probe",
                               use + " unordered container '" + t.text +
                                   "' (" + stripType(ty) + ")");
                        continue;
                    }
                    if (isPtrKeyedAssoc(ty)) {
                        report(i, "determinism",
                               "use of pointer-keyed container '" +
                                   t.text + "' (" + stripType(ty) +
                                   ")");
                        continue;
                    }
                }
            }

            if (!isCall)
                continue;
            if (isKeywordLike(t.text))
                continue;

            int line = t.line;
            if (memberOf) {
                std::string recv = stripType(chainType(i - 2));
                if (!recv.empty() && m.classes.count(recv)) {
                    addEdge(recv, t.text, true, line);
                    continue;
                }
                if (!recv.empty()) {
                    // std container growth through a resolved chain.
                    if (isUnordered(recv))
                        report(i, "hash-probe",
                               "'" + t.text +
                                   "' probe on unordered container");
                    else if (kGrowthMethods.count(t.text) &&
                             isGrowableStd(recv))
                        report(i, "alloc",
                               "container growth '" +
                                   chainText(i) + "(...)' on " + recv);
                    continue;
                }
                // Unknown receiver: fall back to a unique-class match.
                auto cm = m.classesByMethod.find(t.text);
                if (cm != m.classesByMethod.end()) {
                    if (cm->second.size() == 1) {
                        addEdge(*cm->second.begin(), t.text, false,
                                line);
                    } else if (res) {
                        res->unresolved.push_back(
                            {fn.file, line, fn.qualName(), t.text,
                             {cm->second.begin(), cm->second.end()}});
                    }
                } else if (kGrowthMethods.count(t.text)) {
                    // Growth-shaped call on an unresolvable receiver:
                    // surface it rather than silently passing.
                    report(i, "alloc",
                           "possible container growth '" + t.text +
                               "(...)' on unresolved receiver '" +
                               chainText(i - 2) + "'");
                }
                continue;
            }
            if (scoped) {
                if (i < 2)
                    continue;
                std::string qual = toks[i - 2].text;
                if (qual == "std" || isKeywordLike(qual))
                    continue;
                if (m.classes.count(qual))
                    addEdge(qual, t.text, true, line);
                continue;
            }
            // Bare call: same-class method, else free function.
            if (!fn.cls.empty() &&
                !memberType(fn.cls, t.text).empty())
                continue; // calling a member callable (InlineFunction)
            if (!fn.cls.empty() && hasMethod(fn.cls, t.text)) {
                addEdge(fn.cls, t.text, true, line);
                continue;
            }
            if (m.byQualName.count("::" + t.text)) {
                addEdge("", t.text, true, line);
                continue;
            }
            // Unknown bare callee (std/template/macro): ignore.
        }

        // Commit findings, applying suppressions.
        if (!res)
            return;
        for (const auto& p : pending) {
            Finding f;
            f.file = fn.file;
            f.line = p.line;
            f.rule = p.rule;
            f.message = p.message;
            if (p.rule != "suppression") {
                if (fn.suppressAll) {
                    f.suppressed = true;
                    f.suppressReason = fn.suppressReason;
                } else {
                    for (const auto& s : suppressions) {
                        if (p.tok >= s.first.first &&
                            p.tok <= s.first.second) {
                            f.suppressed = true;
                            f.suppressReason = s.second;
                            break;
                        }
                    }
                }
            }
            res->findings.push_back(std::move(f));
        }
    }

    bool
    hasMethod(const std::string& cls, const std::string& name,
              int depth = 0) const
    {
        if (depth > 6)
            return false;
        if (m.byQualName.count(cls + "::" + name))
            return true;
        auto ci = m.classes.find(cls);
        if (ci == m.classes.end())
            return false;
        for (const auto& b : ci->second.bases)
            if (hasMethod(b, name, depth + 1))
                return true;
        return false;
    }

    static bool
    isKeywordLike(const std::string& s)
    {
        static const std::set<std::string> kw = {
            "if",     "while",  "for",    "switch",      "return",
            "sizeof", "alignof","static_cast", "dynamic_cast",
            "const_cast", "reinterpret_cast", "catch", "throw",
            "assert", "decltype", "noexcept", "defined",
        };
        return kw.count(s) != 0;
    }
};

} // namespace

void
extractCalls(Model& m, Function& fn)
{
    Scanner s(m, fn, nullptr);
    s.run();
}

AnalysisResult
analyze(Model& m)
{
    AnalysisResult res;

    // Merge annotation flags across each declaration/definition group
    // (annotate in the header, define in the .cc — both work).
    for (auto& [key, idxs] : m.byQualName) {
        bool hot = false, cold = false, sup = false;
        std::string reason;
        for (std::size_t i : idxs) {
            hot |= m.functions[i].hot;
            cold |= m.functions[i].cold;
            if (m.functions[i].suppressAll) {
                sup = true;
                if (reason.empty())
                    reason = m.functions[i].suppressReason;
            }
        }
        for (std::size_t i : idxs) {
            m.functions[i].hot = hot;
            m.functions[i].cold = cold;
            m.functions[i].suppressAll = sup;
            if (sup && m.functions[i].suppressReason.empty())
                m.functions[i].suppressReason = reason;
        }
    }

    // Transitive derived-class map for CHA.
    auto transitiveDerived = [&](const std::string& cls) {
        std::vector<std::string> out;
        std::deque<std::string> q{cls};
        std::set<std::string> seen{cls};
        while (!q.empty()) {
            std::string c = q.front();
            q.pop_front();
            auto it = m.derived.find(c);
            if (it == m.derived.end())
                continue;
            for (const auto& d : it->second)
                if (seen.insert(d).second) {
                    out.push_back(d);
                    q.push_back(d);
                }
        }
        return out;
    };

    auto targetsOf = [&](const CallSite& cs) {
        std::vector<std::size_t> out;
        auto addBodies = [&](const std::string& cls) {
            auto it = m.byQualName.find(cls + "::" + cs.name);
            if (it == m.byQualName.end())
                return false;
            for (std::size_t i : it->second)
                if (m.functions[i].hasBody)
                    out.push_back(i);
            return true;
        };
        if (cs.cls.empty()) {
            addBodies("");
            return out;
        }
        // Walk up the base chain to the first definer...
        std::string c = cs.cls;
        for (int hop = 0; hop < 6; ++hop) {
            if (addBodies(c))
                break;
            auto ci = m.classes.find(c);
            if (ci == m.classes.end() || ci->second.bases.empty())
                break;
            c = ci->second.bases.front();
        }
        // ...and down to every override (virtual dispatch).
        for (const auto& d : transitiveDerived(cs.cls))
            addBodies(d);
        return out;
    };

    // BFS from hot roots; parents give the witness trace.
    std::vector<int> parent(m.functions.size(), -1);
    std::vector<char> visited(m.functions.size(), 0);
    std::deque<std::size_t> q;
    for (std::size_t i = 0; i < m.functions.size(); ++i) {
        if (m.functions[i].hot && m.functions[i].hasBody &&
            !m.functions[i].cold) {
            ++res.hotRoots;
            visited[i] = 1;
            q.push_back(i);
        }
    }

    auto traceOf = [&](std::size_t i) {
        std::vector<std::string> names;
        for (int cur = int(i); cur >= 0; cur = parent[cur])
            names.push_back(m.functions[cur].qualName());
        std::reverse(names.begin(), names.end());
        std::string out;
        if (names.size() > 5) {
            out = names.front() + " -> ... ";
            names.erase(names.begin(), names.end() - 3);
        }
        for (std::size_t k = 0; k < names.size(); ++k)
            out += (k ? " -> " : "") + names[k];
        return out;
    };

    while (!q.empty()) {
        std::size_t i = q.front();
        q.pop_front();
        Function& fn = m.functions[i];
        ++res.reachable;

        std::size_t before = res.findings.size();
        Scanner s(m, fn, &res);
        s.run();
        for (std::size_t k = before; k < res.findings.size(); ++k)
            res.findings[k].trace = traceOf(i);

        for (const CallSite& cs : fn.calls) {
            for (std::size_t t : targetsOf(cs)) {
                if (visited[t] || m.functions[t].cold)
                    continue;
                visited[t] = 1;
                parent[t] = int(i);
                q.push_back(t);
            }
        }
    }

    // An annotation no declaration took marks nothing: the function it
    // was written for is silently not a root (or not cold).
    for (const StrayAnnotation& a : m.strayAnnotations) {
        Finding f;
        f.file = a.file;
        f.line = a.line;
        f.rule = "annotation";
        f.message = a.macro + " annotates no function declaration; "
                    "place it before the function's return type";
        res.findings.push_back(std::move(f));
    }

    // Deduplicate by (file, line, rule): the base-identifier check and
    // chain checks can both fire on one construct.
    std::set<std::string> seen;
    std::vector<Finding> dedup;
    for (auto& f : res.findings) {
        std::string key =
            f.file + ":" + std::to_string(f.line) + ":" + f.rule;
        if (seen.insert(key).second)
            dedup.push_back(std::move(f));
    }
    res.findings = std::move(dedup);
    std::sort(res.findings.begin(), res.findings.end(),
              [](const Finding& a, const Finding& b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return res;
}

} // namespace hamslint
