/**
 * @file
 * hamslint driver.
 *
 *   hamslint [options] <path>...          lint files / directories
 *   hamslint --self-test <fixture-dir>    run the fixture suite
 *
 * Options:
 *   --compdb FILE   add the translation units listed in a CMake
 *                   compile_commands.json to the input set
 *   --json FILE     write a machine-readable findings report
 *   --max-unresolved N
 *                   fail if more than N call sites could not be
 *                   resolved (guards against silent recall loss)
 *
 * Every unresolved call site is listed after the findings, as
 * `file:line: unresolved call 'method' in Caller::fn (candidates: A B)`,
 * and in the JSON report's `unresolved_call_sites`.
 *
 * Exit codes: 0 = clean (or all fixtures behave), 1 = unsuppressed
 * findings (or fixture mismatch), 2 = usage / IO error.
 *
 * Fixture contract (--self-test): every `*.cc` in the directory is
 * analyzed standalone; a line containing `// HAMSLINT-EXPECT: <rule>`
 * pins that rule to fire on exactly that line. The match is
 * bidirectional — a missing expected finding and an unexpected extra
 * finding both fail — so the suite pins the checker's verdicts both
 * ways (known-bad TUs must fire, known-good TUs must stay silent).
 * The pseudo-rule `unresolved` pins an unresolved call site the same
 * way.
 */

#include "hamslint.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

namespace fs = std::filesystem;
using namespace hamslint;

namespace {

bool
readFile(const std::string& path, std::string& out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

bool
isSourcePath(const fs::path& p)
{
    const std::string ext = p.extension().string();
    return ext == ".hh" || ext == ".hpp" || ext == ".h" ||
           ext == ".cc" || ext == ".cpp" || ext == ".cxx";
}

void
collect(const std::string& arg, std::vector<std::string>& files)
{
    fs::path p(arg);
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
        for (auto it = fs::recursive_directory_iterator(p, ec);
             it != fs::recursive_directory_iterator(); ++it)
            if (it->is_regular_file(ec) && isSourcePath(it->path()))
                files.push_back(it->path().string());
    } else if (fs::is_regular_file(p, ec)) {
        files.push_back(p.string());
    } else {
        std::cerr << "hamslint: no such path: " << arg << "\n";
    }
}

/** Pull the "file" entries out of compile_commands.json without a
 *  JSON library: good enough for CMake's regular output shape. */
void
collectCompdb(const std::string& path, std::vector<std::string>& files)
{
    std::string text;
    if (!readFile(path, text)) {
        std::cerr << "hamslint: cannot read compdb: " << path << "\n";
        return;
    }
    const std::string key = "\"file\"";
    std::size_t pos = 0;
    while ((pos = text.find(key, pos)) != std::string::npos) {
        pos = text.find('"', pos + key.size() + 1);
        if (pos == std::string::npos)
            break;
        std::size_t end = text.find('"', pos + 1);
        if (end == std::string::npos)
            break;
        std::string f = text.substr(pos + 1, end - pos - 1);
        if (isSourcePath(fs::path(f)))
            files.push_back(f);
        pos = end + 1;
    }
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
writeJson(const std::string& path, const AnalysisResult& res)
{
    std::ofstream out(path);
    out << "{\n  \"hot_roots\": " << res.hotRoots
        << ",\n  \"reachable_functions\": " << res.reachable
        << ",\n  \"unresolved_calls\": " << res.unresolved.size()
        << ",\n  \"unresolved_call_sites\": [";
    for (std::size_t i = 0; i < res.unresolved.size(); ++i) {
        const UnresolvedCall& u = res.unresolved[i];
        out << (i ? ",\n" : "\n") << "    {\"file\": \""
            << jsonEscape(u.file) << "\", \"line\": " << u.line
            << ", \"caller\": \"" << jsonEscape(u.caller)
            << "\", \"method\": \"" << jsonEscape(u.method)
            << "\", \"candidates\": [";
        for (std::size_t k = 0; k < u.candidates.size(); ++k)
            out << (k ? ", " : "") << "\"" << jsonEscape(u.candidates[k])
                << "\"";
        out << "]}";
    }
    out << (res.unresolved.empty() ? "]" : "\n  ]")
        << ",\n  \"active_findings\": " << res.activeCount()
        << ",\n  \"suppressed_findings\": " << res.suppressedCount()
        << ",\n  \"findings\": [";
    bool first = true;
    for (const auto& f : res.findings) {
        out << (first ? "\n" : ",\n");
        first = false;
        out << "    {\"file\": \"" << jsonEscape(f.file)
            << "\", \"line\": " << f.line << ", \"rule\": \"" << f.rule
            << "\", \"suppressed\": " << (f.suppressed ? "true" : "false")
            << ", \"message\": \"" << jsonEscape(f.message) << "\"";
        if (f.suppressed)
            out << ", \"reason\": \"" << jsonEscape(f.suppressReason)
                << "\"";
        if (!f.trace.empty())
            out << ", \"trace\": \"" << jsonEscape(f.trace) << "\"";
        out << "}";
    }
    out << "\n  ]\n}\n";
}

AnalysisResult
runAnalysis(const std::vector<std::string>& files, Model& m)
{
    for (const auto& path : files) {
        std::string text;
        if (!readFile(path, text)) {
            std::cerr << "hamslint: cannot read: " << path << "\n";
            continue;
        }
        m.files.push_back({path, lex(text)});
    }
    for (std::size_t i = 0; i < m.files.size(); ++i)
        parseFile(m, i);
    return analyze(m);
}

void
printFindings(const AnalysisResult& res, bool showSuppressed)
{
    for (const auto& f : res.findings) {
        if (f.suppressed && !showSuppressed)
            continue;
        std::cout << f.file << ":" << f.line << ": ["
                  << (f.suppressed ? "suppressed:" : "") << f.rule
                  << "] " << f.message << "\n";
        if (f.suppressed)
            std::cout << "    reason: " << f.suppressReason << "\n";
        if (!f.trace.empty())
            std::cout << "    hot path: " << f.trace << "\n";
    }
}

void
printUnresolved(const AnalysisResult& res)
{
    for (const auto& u : res.unresolved) {
        std::cout << u.file << ":" << u.line << ": unresolved call '"
                  << u.method << "' in " << u.caller << " (candidates:";
        for (const auto& c : u.candidates)
            std::cout << " " << c;
        std::cout << ")\n";
    }
}

int
selfTest(const std::string& dir)
{
    std::vector<std::string> fixtures;
    std::error_code ec;
    for (auto& e : fs::directory_iterator(dir, ec))
        if (e.is_regular_file() &&
            e.path().extension().string() == ".cc")
            fixtures.push_back(e.path().string());
    std::sort(fixtures.begin(), fixtures.end());
    if (fixtures.empty()) {
        std::cerr << "hamslint: no fixtures in " << dir << "\n";
        return 2;
    }

    int failures = 0;
    for (const auto& path : fixtures) {
        std::string text;
        if (!readFile(path, text)) {
            std::cerr << "hamslint: cannot read: " << path << "\n";
            ++failures;
            continue;
        }
        // Expectations live in comments, which the lexer drops — scan
        // the raw text line by line.
        std::set<std::pair<int, std::string>> expected;
        {
            std::istringstream ss(text);
            std::string line;
            int lineNo = 0;
            const std::string tag = "HAMSLINT-EXPECT:";
            while (std::getline(ss, line)) {
                ++lineNo;
                std::size_t p = line.find(tag);
                if (p == std::string::npos)
                    continue;
                std::istringstream rules(line.substr(p + tag.size()));
                std::string rule;
                while (rules >> rule) {
                    if (!rule.empty() && rule.back() == ',')
                        rule.pop_back();
                    expected.insert({lineNo, rule});
                }
            }
        }

        Model m;
        m.files.push_back({path, lex(text)});
        parseFile(m, 0);
        AnalysisResult res = analyze(m);

        std::set<std::pair<int, std::string>> got;
        for (const auto& f : res.findings)
            if (!f.suppressed)
                got.insert({f.line, f.rule});
        for (const auto& u : res.unresolved)
            got.insert({u.line, "unresolved"});

        bool ok = true;
        for (const auto& e : expected)
            if (!got.count(e)) {
                std::cout << path << ":" << e.first
                          << ": FAIL missing expected [" << e.second
                          << "] finding\n";
                ok = false;
            }
        for (const auto& g : got)
            if (!expected.count(g)) {
                std::cout << path << ":" << g.first
                          << ": FAIL unexpected [" << g.second
                          << "] finding\n";
                ok = false;
            }
        std::cout << (ok ? "PASS " : "FAIL ") << path << " ("
                  << expected.size() << " expected, " << got.size()
                  << " fired)\n";
        if (!ok) {
            printFindings(res, true);
            printUnresolved(res);
            ++failures;
        }
    }
    std::cout << "hamslint self-test: "
              << (fixtures.size() - failures) << "/" << fixtures.size()
              << " fixtures behave\n";
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char** argv)
{
    std::vector<std::string> files;
    std::string jsonPath;
    std::string selfTestDir;
    long maxUnresolved = -1;
    bool showSuppressed = false;

    for (int a = 1; a < argc; ++a) {
        std::string arg = argv[a];
        auto next = [&]() -> const char* {
            if (a + 1 >= argc) {
                std::cerr << "hamslint: " << arg
                          << " needs an argument\n";
                std::exit(2);
            }
            return argv[++a];
        };
        if (arg == "--compdb")
            collectCompdb(next(), files);
        else if (arg == "--json")
            jsonPath = next();
        else if (arg == "--self-test")
            selfTestDir = next();
        else if (arg == "--max-unresolved")
            maxUnresolved = std::atol(next());
        else if (arg == "--show-suppressed")
            showSuppressed = true;
        else if (arg == "--help" || arg == "-h") {
            std::cout
                << "usage: hamslint [--compdb FILE] [--json FILE]\n"
                   "                [--max-unresolved N]"
                   " [--show-suppressed] <path>...\n"
                   "       hamslint --self-test <fixture-dir>\n";
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "hamslint: unknown option " << arg << "\n";
            return 2;
        } else {
            collect(arg, files);
        }
    }

    if (!selfTestDir.empty())
        return selfTest(selfTestDir);

    if (files.empty()) {
        std::cerr << "hamslint: no input files (try --help)\n";
        return 2;
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    Model m;
    AnalysisResult res = runAnalysis(files, m);
    printFindings(res, showSuppressed);
    printUnresolved(res);
    std::cout << "hamslint: " << res.hotRoots << " hot roots, "
              << res.reachable << " reachable functions, "
              << res.activeCount() << " active findings ("
              << res.suppressedCount() << " suppressed), "
              << res.unresolved.size() << " unresolved calls\n";
    if (!jsonPath.empty())
        writeJson(jsonPath, res);

    if (maxUnresolved >= 0 &&
        res.unresolved.size() > static_cast<std::size_t>(maxUnresolved)) {
        std::cerr << "hamslint: unresolved call sites ("
                  << res.unresolved.size() << ") exceed --max-unresolved "
                  << maxUnresolved << "\n";
        return 1;
    }
    return res.activeCount() ? 1 : 0;
}
