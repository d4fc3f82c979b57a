// analock-verify — the repo's own static-analysis CLI.
//
//   analock_verify --root src                      scan a tree
//   analock_verify --root src --sarif out.sarif    also write SARIF
//   analock_verify --root src --diff-baseline b    fail only on NEW findings
//   analock_verify --self-test tests/verify_fixtures
//   analock_verify --list-rules
//
// Exit codes: 0 = clean, 1 = findings (or self-test failure),
// 2 = usage/IO error.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/engine.h"
#include "analysis/model.h"
#include "analysis/sarif.h"

namespace fs = std::filesystem;
using analock::analysis::Engine;
using analock::analysis::Finding;

namespace {

const char* const kUsage =
    "usage: analock_verify [--root DIR] [paths...] [options]\n"
    "\n"
    "options:\n"
    "  --root DIR            scan DIR recursively (default: .)\n"
    "  --sarif FILE          write findings as SARIF v2.1.0\n"
    "  --diff-baseline FILE  suppress findings whose fingerprint is in\n"
    "                        FILE (a SARIF log); report only new ones\n"
    "  --update-baseline     rewrite the --diff-baseline file with the\n"
    "                        current findings (sorted by fingerprint)\n"
    "  --max-depth N         taint propagation depth (default 4)\n"
    "  --self-test DIR       run against '// expect:' fixture tree\n"
    "  --exit-zero           always exit 0 when the scan itself worked\n"
    "  --list-rules          print the rule catalog and exit\n";

const std::set<std::string> kSourceSuffixes = {".cpp", ".cc", ".cxx", ".h",
                                               ".hpp"};
const std::set<std::string> kExcludedDirs = {"build", ".git",
                                             "verify_fixtures", "third_party"};

bool is_excluded_dir(const fs::path& p) {
  const std::string name = p.filename().string();
  if (kExcludedDirs.count(name) > 0) return true;
  return name.rfind("build", 0) == 0;  // build-*, build.tsan, ...
}

std::vector<fs::path> gather_sources(const fs::path& root) {
  std::vector<fs::path> files;
  if (fs::is_regular_file(root)) {
    files.push_back(root);
    return files;
  }
  std::error_code ec;
  fs::recursive_directory_iterator it(root, ec), end;
  for (; it != end; it.increment(ec)) {
    if (ec) break;
    const fs::path& p = it->path();
    if (it->is_directory()) {
      if (is_excluded_dir(p)) it.disable_recursion_pending();
      continue;
    }
    if (!it->is_regular_file()) continue;
    if (kSourceSuffixes.count(p.extension().string()) > 0) {
      files.push_back(p);
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

bool read_file(const fs::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

/// Self-test: every fixture line annotated `// expect: rule[, rule]`
/// must produce those findings on the same or previous line, and no
/// unannotated finding may appear. All fixtures load into ONE engine so
/// cross-TU fixtures resolve against each other.
int run_self_test(const fs::path& fixture_dir, int max_depth) {
  const std::vector<fs::path> files = gather_sources(fixture_dir);
  if (files.empty()) {
    std::cerr << "analock_verify: no fixtures under " << fixture_dir << "\n";
    return 2;
  }
  Engine::Options options;
  options.max_depth = max_depth;
  Engine engine(options);

  // (file, line) -> expected rules. The annotation covers its own line
  // and, for comment-only lines, the line below.
  std::map<std::pair<std::string, int>, std::set<std::string>> expected;
  std::map<std::string, std::vector<std::string>> file_lines;
  for (const fs::path& path : files) {
    std::string text;
    if (!read_file(path, text)) {
      std::cerr << "analock_verify: cannot read " << path << "\n";
      return 2;
    }
    const std::string display = path.generic_string();
    std::istringstream stream(text);
    std::string line;
    int lineno = 0;
    std::vector<std::string> lines;
    while (std::getline(stream, line)) {
      ++lineno;
      lines.push_back(line);
      const std::size_t tag = line.find("// expect:");
      if (tag == std::string::npos) continue;
      std::set<std::string> rules;
      std::string current;
      for (const char c : line.substr(tag + 10)) {
        if (c == ',') {
          if (!current.empty()) rules.insert(current);
          current.clear();
        } else if (c != ' ' && c != '\t') {
          current += c;
        }
      }
      if (!current.empty()) rules.insert(current);
      expected[{display, lineno}] = rules;
    }
    file_lines[display] = std::move(lines);
    engine.add_source(display, std::move(text));
  }

  const std::vector<Finding> findings = engine.run();
  int failures = 0;
  std::set<std::pair<std::string, int>> satisfied;
  for (const Finding& f : findings) {
    // A finding satisfies an expect on its own line or the line above
    // (comment-only annotation preceding the flagged statement).
    bool matched = false;
    for (const int line : {f.line, f.line - 1}) {
      const auto it = expected.find({f.file, line});
      if (it != expected.end() && it->second.count(f.rule) > 0) {
        satisfied.insert({f.file, line});
        matched = true;
        break;
      }
    }
    if (!matched) {
      std::cerr << "UNEXPECTED: " << f.render() << "\n";
      ++failures;
    }
  }
  for (const auto& [key, rules] : expected) {
    if (satisfied.count(key) > 0) continue;
    std::string joined;
    for (const std::string& r : rules) {
      if (!joined.empty()) joined += ", ";
      joined += r;
    }
    std::cerr << "MISSED: " << key.first << ":" << key.second
              << ": expected [" << joined << "]\n";
    ++failures;
  }
  if (failures > 0) {
    std::cerr << "analock_verify self-test: " << failures << " failure(s)\n";
    return 1;
  }
  std::cout << "analock_verify self-test: " << expected.size()
            << " expectation(s) across " << files.size()
            << " fixture(s), all satisfied\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::string sarif_path;
  std::string baseline_path;
  std::string self_test_dir;
  int max_depth = 4;
  bool exit_zero = false;
  bool update_baseline = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "analock_verify: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      roots.push_back(next("--root"));
    } else if (arg == "--sarif") {
      sarif_path = next("--sarif");
    } else if (arg == "--diff-baseline") {
      baseline_path = next("--diff-baseline");
    } else if (arg == "--update-baseline") {
      update_baseline = true;
    } else if (arg == "--max-depth") {
      max_depth = std::atoi(next("--max-depth"));
      if (max_depth < 1) max_depth = 1;
    } else if (arg == "--self-test") {
      self_test_dir = next("--self-test");
    } else if (arg == "--exit-zero") {
      exit_zero = true;
    } else if (arg == "--list-rules") {
      for (const auto& rule : analock::analysis::rule_catalog()) {
        std::cout << rule.id << "\t" << rule.short_description << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "analock_verify: unknown option '" << arg << "'\n"
                << kUsage;
      return 2;
    } else {
      roots.push_back(arg);
    }
  }

  if (!self_test_dir.empty()) {
    return run_self_test(self_test_dir, max_depth);
  }
  if (roots.empty()) roots.push_back(".");

  Engine::Options options;
  options.max_depth = max_depth;
  Engine engine(options);
  std::size_t loaded = 0;
  for (const std::string& root : roots) {
    const fs::path root_path(root);
    if (!fs::exists(root_path)) {
      std::cerr << "analock_verify: no such path: " << root << "\n";
      return 2;
    }
    for (const fs::path& path : gather_sources(root_path)) {
      std::string text;
      if (!read_file(path, text)) {
        std::cerr << "analock_verify: cannot read " << path << "\n";
        return 2;
      }
      // Display paths (and therefore fingerprints) must not depend on
      // how the root was spelled: "src" and /abs/path/to/src both map
      // a file to "src/...", keeping baselines portable across
      // invocations and checkouts.
      std::string display;
      if (fs::is_directory(root_path)) {
        std::error_code rel_ec;
        const fs::path rel = fs::relative(path, root_path, rel_ec);
        const fs::path base = root_path.filename().empty()
                                  ? root_path.parent_path().filename()
                                  : root_path.filename();
        display = rel_ec ? path.generic_string()
                         : (base / rel).generic_string();
      } else {
        display = path.filename().generic_string();
      }
      engine.add_source(std::move(display), std::move(text));
      ++loaded;
    }
  }
  if (loaded == 0) {
    std::cerr << "analock_verify: no C++ sources found\n";
    return 2;
  }

  std::vector<Finding> findings = engine.run();

  if (update_baseline) {
    if (baseline_path.empty()) {
      std::cerr << "analock_verify: --update-baseline needs "
                   "--diff-baseline FILE to know where to write\n";
      return 2;
    }
    // The baseline is a SARIF log ordered by fingerprint, so rewrites
    // diff cleanly no matter how the scan ordered the findings.
    std::vector<Finding> sorted = findings;
    std::sort(sorted.begin(), sorted.end(),
              [](const Finding& a, const Finding& b) {
                if (a.fingerprint != b.fingerprint) {
                  return a.fingerprint < b.fingerprint;
                }
                if (a.file != b.file) return a.file < b.file;
                return a.line < b.line;
              });
    std::ofstream out(baseline_path, std::ios::binary);
    if (!out) {
      std::cerr << "analock_verify: cannot write baseline " << baseline_path
                << "\n";
      return 2;
    }
    out << analock::analysis::to_sarif(sorted);
    std::cout << "analock_verify: baseline " << baseline_path
              << " rewritten with " << sorted.size() << " finding(s)\n";
    return 0;
  }

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path, std::ios::binary);
    if (!out) {
      std::cerr << "analock_verify: cannot write " << sarif_path << "\n";
      return 2;
    }
    out << analock::analysis::to_sarif(findings);
  }

  if (!baseline_path.empty()) {
    std::string baseline_text;
    if (!read_file(baseline_path, baseline_text)) {
      std::cerr << "analock_verify: cannot read baseline " << baseline_path
                << "\n";
      return 2;
    }
    const std::set<std::string> known =
        analock::analysis::load_baseline_fingerprints(baseline_text);
    std::vector<Finding> fresh;
    for (Finding& f : findings) {
      if (known.count(f.fingerprint) == 0) fresh.push_back(std::move(f));
    }
    const std::size_t suppressed = findings.size() - fresh.size();
    findings = std::move(fresh);
    if (suppressed > 0) {
      std::cout << "analock_verify: " << suppressed
                << " baselined finding(s) suppressed\n";
    }
  }

  for (const Finding& f : findings) {
    std::cout << f.render() << "\n";
  }
  std::cout << "analock_verify: scanned " << loaded << " file(s), "
            << findings.size() << " finding(s)\n";
  if (exit_zero) return 0;
  return findings.empty() ? 0 : 1;
}
