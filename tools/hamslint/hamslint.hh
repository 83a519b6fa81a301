/**
 * @file
 * hamslint — the hot-path contract checker.
 *
 * Enforces the ROADMAP "Standing discipline" (allocation-free,
 * hash-probe-free, capture-bounded, bit-deterministic per-access path)
 * at analysis time: it walks the static call graph transitively from
 * every function annotated HAMS_HOT_PATH (src/sim/annotations.hh) and
 * reports contract violations anywhere in the reachable set.
 *
 * ## Frontend
 *
 * The preferred frontend would be a Clang AST (`clang++ -Xclang
 * -ast-dump=json` over CMake's compile_commands.json, or libclang).
 * This container ships no clang driver — only gcc — so the tool
 * carries its own self-contained C++ frontend: a tokenizer plus a
 * scope-tracking declaration parser that recovers namespaces, classes
 * (with base lists), member variable types, function definitions and
 * per-function call sites. Receiver types are resolved through member
 * and local declarations (unwrapping unique_ptr/references), one level
 * of method-chain return types, and a class-hierarchy analysis for
 * virtual dispatch. The frontend never preprocesses: annotations are
 * no-op object-like macros, so they survive as plain identifier tokens
 * exactly where the checker needs them. Calls whose receiver cannot be
 * resolved and whose method name is ambiguous across classes produce
 * no edge (counted as `unresolved_calls` and located by file, line,
 * caller and candidate classes, instead of guessing) — the annotation
 * sweep places HAMS_HOT_PATH directly on every entry point, so missing
 * edges cost recall on interior frames, never on the annotated roots.
 *
 * compile_commands.json (when passed via --compdb) contributes its
 * translation-unit list; headers — where most of this simulator's hot
 * code lives — are picked up by the directory scan.
 */

#ifndef HAMSLINT_HH_
#define HAMSLINT_HH_

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace hamslint {

// ------------------------------------------------------------- tokens

enum class Tok : std::uint8_t { Ident, Number, String, CharLit, Punct };

struct Token
{
    Tok kind;
    std::string text;
    int line;
};

/** Tokenize one C++ source file: comments and preprocessor directives
 *  are dropped, string/char literals collapse to single tokens. */
std::vector<Token> lex(const std::string& src);

// -------------------------------------------------------------- model

/** One member-variable declaration (name -> declared type text). */
struct Member
{
    std::string name;
    std::string type; //!< normalized declaration-type text
};

struct ClassInfo
{
    std::string name;               //!< unqualified class name
    std::vector<std::string> bases; //!< direct base class names
    std::map<std::string, std::string> members; //!< name -> type text
};

/** A call site recorded inside a function body. */
struct CallSite
{
    std::string cls;  //!< resolved receiver class ("" = free function)
    std::string name; //!< callee name
    bool resolved;    //!< receiver class known (or free/bare call)
    int line;
};

struct Function
{
    std::string cls;  //!< enclosing/qualifying class ("" = free)
    std::string name;
    std::string file;
    int line = 0;
    std::string returnType; //!< normalized return-type text
    bool hot = false;       //!< HAMS_HOT_PATH
    bool cold = false;      //!< HAMS_COLD_PATH
    bool suppressAll = false;        //!< HAMS_LINT_SUPPRESS on the defn
    std::string suppressReason;
    bool hasBody = false;
    std::size_t bodyBegin = 0; //!< token index of '{'
    std::size_t bodyEnd = 0;   //!< token index one past matching '}'
    std::size_t fileIdx = 0;   //!< index into Model::files
    std::vector<CallSite> calls;

    std::string qualName() const
    {
        return cls.empty() ? name : cls + "::" + name;
    }
};

struct SourceFile
{
    std::string path;
    std::vector<Token> tokens;
};

/** A HAMS_HOT_PATH / HAMS_COLD_PATH token that no declaration took. */
struct StrayAnnotation
{
    std::string file;
    int line;
    std::string macro;
};

struct Model
{
    std::vector<SourceFile> files;
    std::vector<Function> functions;
    /** Annotations the parser dropped, e.g. one written before an
     *  access specifier, which ends the declaration run. */
    std::vector<StrayAnnotation> strayAnnotations;
    std::map<std::string, ClassInfo> classes;
    /** class -> directly derived classes (for CHA virtual dispatch). */
    std::map<std::string, std::vector<std::string>> derived;
    /** (cls,name) -> function indices; free functions under cls "". */
    std::map<std::string, std::vector<std::size_t>> byQualName;
    /** method name -> set of classes defining it (ambiguity check). */
    std::map<std::string, std::set<std::string>> classesByMethod;
};

/** Parse one file's tokens into the model (appends). */
void parseFile(Model& m, std::size_t fileIdx);

/** Join declaration tokens [b, e) into canonical type text. */
std::string joinType(const std::vector<Token>& toks, std::size_t b,
                     std::size_t e);

// ----------------------------------------------------------- findings

struct Finding
{
    std::string file;
    int line = 0;
    std::string rule;    //!< alloc | hash-probe | callback-capture |
                         //!< determinism | suppression | annotation
    std::string message;
    std::string trace;   //!< "Root -> ... -> func" hot-path witness
    bool suppressed = false;
    std::string suppressReason;
};

/** A hot-reachable call whose receiver type is unknown and whose
 *  method name several classes define: it gets no call-graph edge. */
struct UnresolvedCall
{
    std::string file;
    int line = 0;
    std::string caller;                  //!< qualified calling function
    std::string method;                  //!< the ambiguous callee name
    std::vector<std::string> candidates; //!< classes defining it, sorted
};

struct AnalysisResult
{
    std::vector<Finding> findings;
    std::size_t hotRoots = 0;
    std::size_t reachable = 0;
    /** One entry per call site; its size is `unresolved_calls`. */
    std::vector<UnresolvedCall> unresolved;
    std::size_t suppressedCount() const
    {
        std::size_t n = 0;
        for (const auto& f : findings)
            n += f.suppressed;
        return n;
    }
    std::size_t activeCount() const
    {
        return findings.size() - suppressedCount();
    }
};

/** Build the call graph, walk from hot roots, apply the rules. */
AnalysisResult analyze(Model& m);

/** Extract call sites + local types and run rules on one function.
 *  Exposed for analyze(); fills fn.calls on first use. */
void extractCalls(Model& m, Function& fn);

} // namespace hamslint

#endif // HAMSLINT_HH_
