/**
 * @file
 * Declaration parser: recovers namespaces, classes (with base lists
 * and member-variable types) and function definitions/declarations
 * from the token stream, including the HAMS_HOT_PATH / HAMS_COLD_PATH
 * / HAMS_LINT_SUPPRESS annotations attached to each declaration.
 *
 * Function *bodies* are skipped here (recorded as token ranges); call
 * extraction and rule checks happen lazily in analyze.cc, and only
 * for the hot-reachable set.
 */

#include "hamslint.hh"

#include <algorithm>

namespace hamslint {

namespace {

const std::set<std::string> kKeywords = {
    "if",       "else",    "for",      "while",   "do",       "switch",
    "case",     "default", "return",   "break",   "continue", "goto",
    "new",      "delete",  "sizeof",   "alignof", "typeid",   "throw",
    "try",      "catch",   "void",     "bool",    "char",     "short",
    "int",      "long",    "float",    "double",  "signed",   "unsigned",
    "const",    "volatile","static",   "inline",  "virtual",  "explicit",
    "constexpr","mutable", "extern",   "register","thread_local",
    "operator", "template","typename", "class",   "struct",   "union",
    "enum",     "namespace","using",   "typedef", "friend",   "public",
    "private",  "protected","this",    "nullptr", "true",     "false",
    "auto",     "decltype","noexcept", "static_assert", "static_cast",
    "dynamic_cast", "const_cast", "reinterpret_cast", "co_await",
    "co_yield", "co_return", "alignas", "asm", "export", "final",
    "override",
};

bool
isKeyword(const std::string& s)
{
    return kKeywords.count(s) != 0;
}

struct Scope
{
    enum Kind { Namespace, Class, Block } kind;
    std::string name;
};

} // namespace

/** Join declaration tokens into canonical type text ("std::vector<T>"). */
std::string
joinType(const std::vector<Token>& toks, std::size_t b, std::size_t e)
{
    std::string out;
    for (std::size_t i = b; i < e; ++i) {
        const std::string& t = toks[i].text;
        if (t == "static" || t == "inline" || t == "virtual" ||
            t == "constexpr" || t == "explicit" || t == "friend" ||
            t == "typename" || t == "mutable" || t == "HAMS_HOT_PATH" ||
            t == "HAMS_COLD_PATH")
            continue;
        bool punct = toks[i].kind == Tok::Punct;
        if (!out.empty() && !punct &&
            out.back() != ':' && out.back() != '<' && out.back() != '(' &&
            out.back() != '*' && out.back() != '&')
            out += ' ';
        out += t;
    }
    return out;
}

/** Find the index of the matching closer for the opener at @p i. */
std::size_t
matchForward(const std::vector<Token>& toks, std::size_t i,
             const char* open, const char* close)
{
    int depth = 0;
    for (std::size_t j = i; j < toks.size(); ++j) {
        if (toks[j].kind != Tok::Punct)
            continue;
        if (toks[j].text == open)
            ++depth;
        else if (toks[j].text == close && --depth == 0)
            return j;
    }
    return toks.size() - 1;
}

/** Skip a template-argument angle group starting at '<'. Heuristic:
 *  bail (returning the start) if the group looks like a comparison. */
std::size_t
skipAngles(const std::vector<Token>& toks, std::size_t i)
{
    int depth = 0;
    for (std::size_t j = i; j < toks.size() && j < i + 400; ++j) {
        const Token& t = toks[j];
        if (t.kind != Tok::Punct)
            continue;
        if (t.text == "<")
            ++depth;
        else if (t.text == ">" && --depth == 0)
            return j + 1;
        else if (t.text == ";" || t.text == "{")
            break; // not a template-arg list after all
    }
    return i + 1;
}

void
parseFile(Model& m, std::size_t fileIdx)
{
    const std::vector<Token>& toks = m.files[fileIdx].tokens;
    const std::string& path = m.files[fileIdx].path;
    std::vector<Scope> scopes;
    const std::size_t n = toks.size();

    auto enclosingClass = [&]() -> std::string {
        for (auto it = scopes.rbegin(); it != scopes.rend(); ++it)
            if (it->kind == Scope::Class)
                return it->name;
        return "";
    };

    std::size_t declStart = 0;
    // Annotation tokens seen at declaration scope; registerFunction
    // marks those in its declaration run as taken.
    std::vector<std::size_t> annotations;
    std::set<std::size_t> taken;

    auto registerFunction = [&](const std::string& cls,
                                const std::string& name, int line,
                                std::size_t nameTok, bool hasBody,
                                std::size_t bodyBegin,
                                std::size_t bodyEnd) {
        Function fn;
        fn.cls = cls;
        fn.name = name;
        fn.file = path;
        fn.line = line;
        fn.fileIdx = fileIdx;
        fn.hasBody = hasBody;
        fn.bodyBegin = bodyBegin;
        fn.bodyEnd = bodyEnd;
        // Annotations + return type live in the declaration run.
        std::size_t typeEnd = nameTok;
        // Back over the qualifier chain (A::B::name -> before A).
        while (typeEnd >= declStart + 2 && typeEnd >= 2 &&
               toks[typeEnd - 1].text == "::" &&
               toks[typeEnd - 2].kind == Tok::Ident)
            typeEnd -= 2;
        if (typeEnd > declStart && toks[typeEnd - 1].text == "~")
            --typeEnd;
        for (std::size_t j = declStart; j < nameTok; ++j) {
            const std::string& t = toks[j].text;
            if (t == "HAMS_HOT_PATH" || t == "HAMS_COLD_PATH")
                taken.insert(j);
            if (t == "HAMS_HOT_PATH")
                fn.hot = true;
            else if (t == "HAMS_COLD_PATH")
                fn.cold = true;
            else if (t == "HAMS_LINT_SUPPRESS") {
                fn.suppressAll = true;
                for (std::size_t k = j + 1; k < nameTok && k < j + 4; ++k)
                    if (toks[k].kind == Tok::String &&
                        toks[k].text.size() > 2)
                        fn.suppressReason = toks[k].text.substr(
                            1, toks[k].text.size() - 2);
            }
        }
        fn.returnType = joinType(toks, declStart, typeEnd);
        std::size_t idx = m.functions.size();
        m.functions.push_back(std::move(fn));
        m.byQualName[cls + "::" + name].push_back(idx);
        if (!cls.empty())
            m.classesByMethod[name].insert(cls);
    };

    std::size_t i = 0;
    while (i < n) {
        const Token& t = toks[i];

        if (t.kind == Tok::Ident) {
            if (t.text == "HAMS_HOT_PATH" || t.text == "HAMS_COLD_PATH")
                annotations.push_back(i);
            if (t.text == "namespace") {
                std::size_t j = i + 1;
                std::string name;
                while (j < n && (toks[j].kind == Tok::Ident ||
                                 toks[j].text == "::")) {
                    if (toks[j].kind == Tok::Ident)
                        name = toks[j].text;
                    ++j;
                }
                if (j < n && toks[j].text == "{") {
                    scopes.push_back({Scope::Namespace, name});
                    i = j + 1;
                    declStart = i;
                    continue;
                }
                // namespace alias: skip to ';'
                while (j < n && toks[j].text != ";")
                    ++j;
                i = j + 1;
                declStart = i;
                continue;
            }
            if (t.text == "template") {
                if (i + 1 < n && toks[i + 1].text == "<")
                    i = skipAngles(toks, i + 1);
                else
                    ++i;
                continue;
            }
            if (t.text == "enum") {
                std::size_t j = i + 1;
                while (j < n && toks[j].text != "{" && toks[j].text != ";")
                    ++j;
                if (j < n && toks[j].text == "{")
                    j = matchForward(toks, j, "{", "}") + 1;
                while (j < n && toks[j].text != ";")
                    ++j;
                i = j + 1;
                declStart = i;
                continue;
            }
            if ((t.text == "using" || t.text == "typedef" ||
                 t.text == "friend" || t.text == "static_assert") &&
                i == declStart) {
                std::size_t j = i + 1;
                int paren = 0;
                while (j < n && !(toks[j].text == ";" && paren == 0)) {
                    if (toks[j].text == "(")
                        ++paren;
                    else if (toks[j].text == ")")
                        --paren;
                    ++j;
                }
                i = j + 1;
                declStart = i;
                continue;
            }
            if ((t.text == "public" || t.text == "private" ||
                 t.text == "protected") &&
                i + 1 < n && toks[i + 1].text == ":") {
                i += 2;
                declStart = i;
                continue;
            }
            if (t.text == "class" || t.text == "struct" ||
                t.text == "union") {
                // Find the class name / body; distinguish definitions
                // from forward declarations and elaborated specifiers.
                std::size_t j = i + 1;
                std::string name;
                while (j < n && toks[j].kind == Tok::Ident) {
                    if (toks[j].text != "final" && toks[j].text != "alignas")
                        name = toks[j].text;
                    ++j;
                    if (j < n && toks[j].text == "(") // alignas(...)
                        j = matchForward(toks, j, "(", ")") + 1;
                }
                if (j < n && (toks[j].text == "{" || toks[j].text == ":")) {
                    ClassInfo& ci = m.classes[name];
                    ci.name = name;
                    if (toks[j].text == ":") {
                        // Base-clause: idents minus access specifiers;
                        // the last component of each chain is the base.
                        std::string last;
                        ++j;
                        while (j < n && toks[j].text != "{") {
                            const Token& b = toks[j];
                            if (b.kind == Tok::Ident &&
                                b.text != "public" &&
                                b.text != "private" &&
                                b.text != "protected" &&
                                b.text != "virtual")
                                last = b.text;
                            if (b.text == "<")
                                j = skipAngles(toks, j) - 1;
                            if (b.text == "," && !last.empty()) {
                                ci.bases.push_back(last);
                                m.derived[last].push_back(name);
                                last.clear();
                            }
                            ++j;
                        }
                        if (!last.empty()) {
                            ci.bases.push_back(last);
                            m.derived[last].push_back(name);
                        }
                    }
                    scopes.push_back({Scope::Class, name});
                    i = j + 1;
                    declStart = i;
                    continue;
                }
                // Forward declaration or elaborated type: fall through,
                // the run ends at the next ';'.
                i = j;
                continue;
            }
        }

        if (t.kind == Tok::Punct) {
            if (t.text == "{") {
                // A '{' at declaration scope that is not a function
                // body: brace initializer (run contains '=') is
                // skipped; anything else is treated as a plain block.
                bool hasAssign = false;
                for (std::size_t j = declStart; j < i; ++j)
                    if (toks[j].text == "=")
                        hasAssign = true;
                if (hasAssign) {
                    i = matchForward(toks, i, "{", "}") + 1;
                } else {
                    scopes.push_back({Scope::Block, ""});
                    ++i;
                }
                declStart = i;
                continue;
            }
            if (t.text == "}") {
                if (!scopes.empty())
                    scopes.pop_back();
                ++i;
                if (i < n && toks[i].text == ";")
                    ++i;
                declStart = i;
                continue;
            }
            if (t.text == ";") {
                // End of a non-function declaration run: member
                // variable extraction at class scope.
                std::string cls = enclosingClass();
                if (!cls.empty() && i > declStart) {
                    std::size_t e = i;
                    // Strip initializer.
                    for (std::size_t j = declStart; j < i; ++j) {
                        if (toks[j].text == "=" || toks[j].text == "{") {
                            e = j;
                            break;
                        }
                    }
                    // Strip array extent.
                    while (e > declStart && toks[e - 1].text == "]")
                        e = [&] {
                            std::size_t k = e - 1;
                            int d = 0;
                            while (k > declStart) {
                                if (toks[k].text == "]")
                                    ++d;
                                else if (toks[k].text == "[" && --d == 0)
                                    break;
                                --k;
                            }
                            return k;
                        }();
                    if (e > declStart + 1 &&
                        toks[e - 1].kind == Tok::Ident &&
                        !isKeyword(toks[e - 1].text)) {
                        std::string name = toks[e - 1].text;
                        std::string type =
                            joinType(toks, declStart, e - 1);
                        bool hasParen = false;
                        for (std::size_t j = declStart; j < e; ++j)
                            if (toks[j].text == "(" ||
                                toks[j].text == ")")
                                hasParen = true;
                        if (!type.empty() && !hasParen)
                            m.classes[cls].members[name] = type;
                    }
                }
                ++i;
                declStart = i;
                continue;
            }
            if (t.text == "(") {
                // Candidate function declarator. Identify the name.
                std::string name;
                std::size_t nameTok = 0;
                std::size_t paramsAt = i;
                if (i > declStart && toks[i - 1].kind == Tok::Ident &&
                    !isKeyword(toks[i - 1].text)) {
                    name = toks[i - 1].text;
                    nameTok = i - 1;
                    if (i >= 2 && toks[i - 2].text == "~") {
                        name = "~" + name;
                        nameTok = i - 2;
                    }
                } else if (i > declStart && toks[i - 1].text == "operator") {
                    // operator()(...)
                    if (i + 2 < n && toks[i + 1].text == ")" &&
                        toks[i + 2].text == "(") {
                        name = "operator()";
                        nameTok = i - 1;
                        paramsAt = i + 2;
                    }
                } else if (i > declStart && toks[i - 1].kind == Tok::Punct) {
                    // operator<op>(...): scan back for 'operator'.
                    std::size_t k = i;
                    while (k > declStart && k > i - 4 &&
                           toks[k - 1].kind == Tok::Punct)
                        --k;
                    if (k > declStart && toks[k - 1].text == "operator") {
                        name = "operator";
                        for (std::size_t q = k; q < i; ++q)
                            name += toks[q].text;
                        nameTok = k - 1;
                    }
                }
                if (name.empty()) {
                    i = matchForward(toks, i, "(", ")") + 1;
                    continue;
                }
                std::size_t close = matchForward(toks, paramsAt, "(", ")");
                std::size_t j = close + 1;
                // Trailing qualifiers.
                bool declOnly = false;
                while (j < n) {
                    const std::string& q = toks[j].text;
                    if (q == "const" || q == "noexcept" ||
                        q == "override" || q == "final" || q == "&" ||
                        q == "&&" || q == "mutable") {
                        ++j;
                        if (j < n && toks[j].text == "(") // noexcept(...)
                            j = matchForward(toks, j, "(", ")") + 1;
                        continue;
                    }
                    if (q == "->") { // trailing return type
                        ++j;
                        while (j < n && toks[j].text != "{" &&
                               toks[j].text != ";") {
                            if (toks[j].text == "<")
                                j = skipAngles(toks, j);
                            else
                                ++j;
                        }
                        continue;
                    }
                    if (q == "=") { // = 0 / = default / = delete
                        declOnly = true;
                        while (j < n && toks[j].text != ";")
                            ++j;
                        continue;
                    }
                    break;
                }
                std::string cls;
                if (nameTok >= declStart + 2 &&
                    toks[nameTok - 1].text == "::" &&
                    toks[nameTok - 2].kind == Tok::Ident)
                    cls = toks[nameTok - 2].text;
                else if (nameTok >= declStart + 1 &&
                         toks[nameTok - 1].text == "~" &&
                         nameTok >= declStart + 3 &&
                         toks[nameTok - 2].text == "::")
                    cls = toks[nameTok - 3].text;
                if (cls.empty())
                    cls = enclosingClass();

                if (j < n && toks[j].text == ":" && !declOnly) {
                    // Constructor member-init list: skip ident(...) or
                    // ident{...} groups up to the body '{'.
                    ++j;
                    while (j < n && toks[j].text != "{") {
                        if (toks[j].text == "(")
                            j = matchForward(toks, j, "(", ")") + 1;
                        else if (toks[j].text == "<")
                            j = skipAngles(toks, j);
                        else
                            ++j;
                        if (j < n && toks[j].text == ",")
                            ++j;
                        else if (j < n && toks[j].text == "{" &&
                                 j + 1 < n &&
                                 toks[matchForward(toks, j, "{", "}")]
                                     .text == "}" &&
                                 toks[j - 1].kind == Tok::Ident &&
                                 j >= 2 && toks[j - 2].text != ")") {
                            // ident{...} init of the last member, the
                            // next '{' is the body: disambiguate by
                            // looking past the group for ',' or '{'.
                            std::size_t g =
                                matchForward(toks, j, "{", "}") + 1;
                            if (g < n && (toks[g].text == "," ||
                                          toks[g].text == "{")) {
                                j = g;
                                continue;
                            }
                            break;
                        }
                    }
                }

                if (j < n && toks[j].text == "{" && !declOnly) {
                    std::size_t end = matchForward(toks, j, "{", "}") + 1;
                    registerFunction(cls, name, toks[nameTok].line,
                                     nameTok, true, j, end);
                    i = end;
                    if (i < n && toks[i].text == ";")
                        ++i;
                    declStart = i;
                    continue;
                }
                if (j < n && (toks[j].text == ";" || declOnly)) {
                    registerFunction(cls, name, toks[nameTok].line,
                                     nameTok, false, 0, 0);
                    while (j < n && toks[j].text != ";")
                        ++j;
                    i = j + 1;
                    declStart = i;
                    continue;
                }
                // Not a function after all (e.g. parenthesized
                // sub-expression in a namespace-scope initializer).
                i = close + 1;
                continue;
            }
        }
        ++i;
    }

    for (std::size_t a : annotations)
        if (!taken.count(a))
            m.strayAnnotations.push_back({path, toks[a].line, toks[a].text});
}

} // namespace hamslint
