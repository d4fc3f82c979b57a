// Unit tests for the analock-verify engine: lexer edge cases (raw
// strings, digit separators), the lightweight parser on tricky C++
// (out-of-line definitions, operator overloads, nested lambdas), the
// cross-TU call graph, the taint/lock analyses through the public
// Engine interface, and the SARIF emitter contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "analysis/callgraph.h"
#include "analysis/engine.h"
#include "analysis/lexer.h"
#include "analysis/model.h"
#include "analysis/parser.h"
#include "analysis/sarif.h"

namespace analock::analysis {
namespace {

SourceFile make_source(std::string path, std::string text) {
  SourceFile source;
  source.path = std::move(path);
  source.text = std::move(text);
  source.stripped = strip_source(source.text);
  source.line_starts = compute_line_starts(source.text);
  return source;
}

std::vector<std::string> rules_of(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  rules.reserve(findings.size());
  for (const Finding& f : findings) rules.push_back(f.rule);
  return rules;
}

/// Findings of one source analyzed alone.
std::vector<Finding> run_one(std::string path, std::string text) {
  Engine engine;
  engine.add_source(std::move(path), std::move(text));
  return engine.run();
}

/// "rule@line" per finding, in the engine's stable order.
std::vector<std::string> sites_of(const std::vector<Finding>& findings) {
  std::vector<std::string> sites;
  sites.reserve(findings.size());
  for (const Finding& f : findings) {
    sites.push_back(f.rule + "@" + std::to_string(f.line));
  }
  return sites;
}

// ------------------------------------------------------------------ lexer

TEST(StripSource, BlanksLineAndBlockCommentsPreservingLength) {
  const std::string text = "int a; // trailing\n/* b\nock */int c;\n";
  const std::string stripped = strip_source(text);
  ASSERT_EQ(stripped.size(), text.size());
  EXPECT_EQ(stripped.find("trailing"), std::string::npos);
  EXPECT_EQ(stripped.find("ock"), std::string::npos);
  EXPECT_NE(stripped.find("int c"), std::string::npos);
  // Newlines survive so line numbering is unchanged.
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
            std::count(text.begin(), text.end(), '\n'));
}

TEST(StripSource, BlanksStringsAndCharsWithEscapes) {
  const std::string text =
      "auto s = \"a \\\" quoted // not a comment\"; char c = '\\'';\n";
  const std::string stripped = strip_source(text);
  ASSERT_EQ(stripped.size(), text.size());
  EXPECT_EQ(stripped.find("quoted"), std::string::npos);
  EXPECT_EQ(stripped.find("not a comment"), std::string::npos);
  EXPECT_NE(stripped.find("auto s ="), std::string::npos);
}

TEST(StripSource, HandlesRawStringLiterals) {
  const std::string text =
      "auto r = R\"delim(contains \" and )\" and // junk)delim\"; int z;\n";
  const std::string stripped = strip_source(text);
  ASSERT_EQ(stripped.size(), text.size());
  EXPECT_EQ(stripped.find("junk"), std::string::npos);
  // The raw string's fake terminator must not end stripping early.
  EXPECT_NE(stripped.find("int z"), std::string::npos);
}

TEST(StripSource, RawStringWithEncodingPrefix) {
  const std::string text = "auto r = u8R\"(hi // there)\"; int keep;\n";
  const std::string stripped = strip_source(text);
  EXPECT_EQ(stripped.find("there"), std::string::npos);
  EXPECT_NE(stripped.find("int keep"), std::string::npos);
}

TEST(Tokenize, DigitSeparatorsStayOneNumberToken) {
  const std::vector<Token> toks = tokenize("x = 1'000'000;");
  auto it = std::find_if(toks.begin(), toks.end(), [](const Token& t) {
    return t.kind == TokKind::kNumber;
  });
  ASSERT_NE(it, toks.end());
  EXPECT_EQ(it->text, "1'000'000");
}

TEST(Tokenize, MultiCharOperatorsAreSingleTokens) {
  const std::vector<Token> toks = tokenize("a::b->c << d && e");
  std::vector<std::string> punct;
  for (const Token& t : toks) {
    if (t.kind == TokKind::kPunct) punct.emplace_back(t.text);
  }
  EXPECT_EQ(punct, (std::vector<std::string>{"::", "->", "<<", "&&"}));
}

TEST(SourceFileModel, LineAndColumnOfOffsets) {
  const SourceFile source = make_source("f.cpp", "abc\ndef\nghi\n");
  EXPECT_EQ(source.line_of(0), 1);
  EXPECT_EQ(source.line_of(4), 2);
  EXPECT_EQ(source.col_of(5), 2);
  EXPECT_EQ(source.line_text(2), "def");
}

// ----------------------------------------------------------------- parser

TEST(Parser, FindsFreeAndOutOfLineDefinitions) {
  const SourceFile source = make_source("f.cpp", R"cpp(
namespace ns {
int free_fn(int a, double b) { return a; }
class Widget {
 public:
  void inline_method() { free_fn(1, 2.0); }
};
void Widget::out_of_line(int x) { (void)x; }
}  // namespace ns
)cpp");
  const ParsedFile parsed = parse_file(source);
  std::set<std::string> names;
  for (const FunctionDef& fn : parsed.functions) {
    names.insert(fn.qualified_name);
  }
  EXPECT_TRUE(names.count("ns::free_fn") == 1) << *names.begin();
  EXPECT_TRUE(names.count("ns::Widget::inline_method") == 1);
  EXPECT_TRUE(names.count("ns::Widget::out_of_line") == 1);
}

TEST(Parser, ExtractsParamsTypesAndNames) {
  const SourceFile source = make_source(
      "f.cpp", "void f(const std::string& name, int count, double) {}\n");
  const ParsedFile parsed = parse_file(source);
  ASSERT_EQ(parsed.functions.size(), 1u);
  const FunctionDef& fn = parsed.functions[0];
  ASSERT_EQ(fn.params.size(), 3u);
  EXPECT_EQ(fn.params[0].name, "name");
  EXPECT_NE(fn.params[0].type.find("string"), std::string::npos);
  EXPECT_EQ(fn.params[1].name, "count");
  EXPECT_EQ(fn.params[2].name, "");  // unnamed
}

TEST(Parser, OperatorOverloadDefinitionDoesNotDeraill) {
  const SourceFile source = make_source("f.cpp", R"cpp(
struct V {
  V& operator+=(const V& o) { return *this; }
};
bool operator==(const V& a, const V& b) { return true; }
std::ostream& operator<<(std::ostream& os, const V& v) { return os; }
int after() { return 7; }
)cpp");
  const ParsedFile parsed = parse_file(source);
  std::set<std::string> names;
  for (const FunctionDef& fn : parsed.functions) names.insert(fn.base_name);
  // Whatever the operator spellings parse as, the function AFTER them
  // must still be discovered — the walker cannot lose sync.
  EXPECT_EQ(names.count("after"), 1u);
}

TEST(Parser, NestedLambdaCallsAttributeToEnclosingFunction) {
  const SourceFile source = make_source("f.cpp", R"cpp(
void outer() {
  auto f = [](int x) {
    auto g = [x]() { std::printf("%d", x); };
    g();
  };
  f(3);
}
)cpp");
  const ParsedFile parsed = parse_file(source);
  ASSERT_EQ(parsed.functions.size(), 1u);
  const FunctionDef& fn = parsed.functions[0];
  EXPECT_EQ(fn.base_name, "outer");
  bool saw_printf = false;
  for (const CallSite& call : fn.calls) {
    if (call.base_name == "printf") saw_printf = true;
  }
  EXPECT_TRUE(saw_printf);
}

TEST(Parser, LockGuardScopeAndGuardedMemberAnnotation) {
  const SourceFile source = make_source("f.cpp", R"cpp(
class C {
 public:
  void m() {
    {
      const std::scoped_lock lock(mu_);
      v_ += 1;
    }
    v_ += 2;
  }
 private:
  std::mutex mu_;
  int v_ = 0;  // analock: guarded_by(mu_)
};
)cpp");
  const ParsedFile parsed = parse_file(source);
  ASSERT_EQ(parsed.guarded_members.size(), 1u);
  EXPECT_EQ(parsed.guarded_members[0].class_name, "C");
  EXPECT_EQ(parsed.guarded_members[0].member_name, "v_");
  EXPECT_EQ(parsed.guarded_members[0].mutex_name, "mu_");
  ASSERT_EQ(parsed.functions.size(), 1u);
  ASSERT_EQ(parsed.functions[0].locks.size(), 1u);
  const LockHold& hold = parsed.functions[0].locks[0];
  EXPECT_EQ(hold.mutex_name, "mu_");
  // The guard's scope ends at the inner block, before the second +=.
  const std::size_t second = source.stripped.find("v_ += 2");
  EXPECT_LT(hold.end_offset, second);
}

TEST(SplitTopLevelArgs, RespectsNesting) {
  const std::vector<std::string> args =
      split_top_level_args("a, f(b, c), {d, e}, std::pair<int, int>{}");
  ASSERT_EQ(args.size(), 4u);
  EXPECT_EQ(args[0], "a");
  EXPECT_EQ(args[1], "f(b, c)");
  EXPECT_EQ(args[2], "{d, e}");
}

// -------------------------------------------------------------- callgraph

TEST(CallGraphTest, ResolvesAcrossFiles) {
  const SourceFile a = make_source(
      "a.cpp", "void helper(int x);\nvoid caller() { helper(1); }\n");
  const SourceFile b = make_source("b.cpp", "void helper(int x) { (void)x; }\n");
  std::vector<ParsedFile> files;
  files.push_back(parse_file(a));
  files.push_back(parse_file(b));
  const CallGraph graph(files);
  const FunctionDef* caller = nullptr;
  for (const FunctionRef& ref : graph.all()) {
    if (ref.def().base_name == "caller") caller = &ref.def();
  }
  ASSERT_NE(caller, nullptr);
  ASSERT_EQ(caller->calls.size(), 1u);
  const std::vector<FunctionRef> targets = graph.resolve(caller->calls[0]);
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0].file->source->path, "b.cpp");
}

TEST(CallGraphTest, QualifiedCallPrefersMatchingClass) {
  const SourceFile source = make_source("f.cpp", R"cpp(
struct A { void run() {} };
struct B { void run() {} };
void go() { A a; a.run(); }
)cpp");
  std::vector<ParsedFile> files;
  files.push_back(parse_file(source));
  const CallGraph graph(files);
  CallSite call;
  call.callee = "A::run";
  call.base_name = "run";
  const std::vector<FunctionRef> targets = graph.resolve(call);
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0].def().class_name, "A");
}

// ----------------------------------------------------------- engine/taint

TEST(EngineTaint, DirectSinkAndOneHopLaundering) {
  Engine engine;
  engine.add_source("direct.cpp",
                    "void f(unsigned long long key_bits) {\n"
                    "  std::printf(\"%llx\", key_bits);\n"
                    "}\n");
  engine.add_source("hop.cpp",
                    "std::string format_key(unsigned long long key_word) {\n"
                    "  return std::to_string(key_word);\n"
                    "}\n"
                    "void log_debug(const std::string& m) {\n"
                    "  std::printf(\"%s\", m.c_str());\n"
                    "}\n"
                    "void launder(unsigned long long key_word) {\n"
                    "  log_debug(format_key(key_word));\n"
                    "}\n");
  const std::vector<Finding> findings = engine.run();
  const std::vector<std::string> rules = rules_of(findings);
  EXPECT_NE(std::find(rules.begin(), rules.end(), "taint-sink"), rules.end());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "taint-call"), rules.end());
}

TEST(EngineTaint, BenignKeyPrefixesDoNotTaint) {
  Engine engine;
  engine.add_source("benign.cpp",
                    "void f(int key_count, double puf_flip_prob) {\n"
                    "  std::printf(\"%d %f\", key_count, puf_flip_prob);\n"
                    "}\n");
  EXPECT_TRUE(engine.run().empty());
}

TEST(EngineTaint, InlineAllowSuppressesOnSameAndNextLine) {
  Engine engine;
  engine.add_source(
      "allowed.cpp",
      "void f(unsigned long long key_bits) {\n"
      "  // analock-verify: allow(taint-sink) golden test vector\n"
      "  std::printf(\"%llx\", key_bits);\n"
      "}\n");
  EXPECT_TRUE(engine.run().empty());
}

TEST(EngineLocks, UnguardedAccessCaughtGuardedAccessClean) {
  Engine engine;
  engine.add_source("tally.cpp",
                    "class T {\n"
                    " public:\n"
                    "  void good() { const std::scoped_lock lock(mu_); "
                    "n_ += 1; }\n"
                    "  int bad() const { return n_; }\n"
                    " private:\n"
                    "  mutable std::mutex mu_;\n"
                    "  int n_ = 0;  // analock: guarded_by(mu_)\n"
                    "};\n");
  const std::vector<Finding> findings = engine.run();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "guarded-by");
  EXPECT_EQ(findings[0].line, 4);
}

TEST(EngineDeterminism, UnorderedAccumulationAndRngSource) {
  Engine engine;
  engine.add_source(
      "det.cpp",
      "double f(const std::unordered_map<std::string, double>& m) {\n"
      "  double sum = 0.0;\n"
      "  for (const auto& kv : m) { sum += kv.second; }\n"
      "  std::mt19937 gen;\n"
      "  (void)gen;\n"
      "  return sum;\n"
      "}\n");
  const std::vector<std::string> rules = rules_of(engine.run());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "fp-unordered-accum"),
            rules.end());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "rng-source"), rules.end());
}

TEST(EngineDeterminism, SimRngDerivedEngineIsClean) {
  Engine engine;
  engine.add_source("ok.cpp",
                    "void f(sim::Rng& rng) {\n"
                    "  std::mt19937 gen(rng.next_u32());\n"
                    "  (void)gen;\n"
                    "}\n");
  EXPECT_TRUE(engine.run().empty());
}

TEST(EngineDeterminism, UnorderedIterationFlagged) {
  const std::vector<Finding> findings = run_one(
      "iter.cpp",
      "std::vector<int> order(const std::unordered_set<int>& slots) {\n"
      "  std::vector<int> out;\n"
      "  for (const int s : slots) out.push_back(s);\n"
      "  return out;\n"
      "}\n"
      "bool has(const std::unordered_set<int>& slots, int s) {\n"
      "  return slots.count(s) > 0;\n"
      "}\n");
  EXPECT_EQ(sites_of(findings), std::vector<std::string>{"unordered-iter@3"});
}

TEST(EngineDeterminism, AmbientRngSourcesFlagged) {
  const std::vector<Finding> findings = run_one(
      "ambient.cpp",
      "unsigned device() {\n"
      "  std::random_device entropy;\n"
      "  return entropy();\n"
      "}\n"
      "int libc() { return rand(); }\n"
      "void seed() { srand(42); }\n"
      "long long wall() { return static_cast<long long>(time(nullptr)); }\n"
      "std::mt19937 fresh() { return std::mt19937{}; }\n"
      "void fill(std::time_t* out) { time(out); }\n");
  EXPECT_EQ(sites_of(findings),
            (std::vector<std::string>{"rng-source@2", "rng-source@5",
                                      "rng-source@6", "rng-source@7",
                                      "rng-source@8"}));
}

TEST(EngineDeterminism, AmbientClockReadFlagged) {
  const std::vector<Finding> findings = run_one(
      "clock.cpp",
      "long long stamp() {\n"
      "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
      "}\n"
      "auto wall() { return std::chrono::system_clock::now(); }\n");
  EXPECT_EQ(sites_of(findings),
            (std::vector<std::string>{"determinism-clock@2",
                                      "determinism-clock@4"}));
}

// One hazard, one finding: each case below mirrors a site of the pinned
// e2e corpus where a naive port of the new rules would double-report.

TEST(EngineDeterminism, ClockNowNsBodyIsExempt) {
  // src/obs/clock.h: SteadyClock::now_ns is the sanctioned read.
  EXPECT_TRUE(run_one(
      "src/obs/clock.h",
      "class SteadyClock final : public Clock {\n"
      " public:\n"
      "  [[nodiscard]] std::uint64_t now_ns() const override {\n"
      "    return static_cast<std::uint64_t>(\n"
      "        std::chrono::duration_cast<std::chrono::nanoseconds>(\n"
      "            std::chrono::steady_clock::now().time_since_epoch())\n"
      "            .count());\n"
      "  }\n"
      "};\n").empty());
}

TEST(EngineDeterminism, FloatAccumulatingLoopIsOnlyFpUnorderedAccum) {
  // tests/verify_fixtures/violation_det_unordered.cpp:8-11.
  const std::vector<Finding> findings = run_one(
      "accum.cpp",
      "double total_weight(\n"
      "    const std::unordered_map<std::string, double>& weights) {\n"
      "  double sum = 0.0;\n"
      "  for (const auto& [name, w] : weights) {\n"
      "    sum += w;\n"
      "  }\n"
      "  return sum;\n"
      "}\n");
  EXPECT_EQ(sites_of(findings),
            std::vector<std::string>{"fp-unordered-accum@5"});
}

TEST(EngineDeterminism, RandomDeviceSeedingReportedEngineIsOneFinding) {
  // tests/verify_fixtures/violation_rng_source.cpp:13-14.
  const std::vector<Finding> findings = run_one(
      "seeded.cpp",
      "int ambient_seeded() {\n"
      "  std::random_device rd;\n"
      "  std::mt19937_64 gen(rd());\n"
      "  return static_cast<int>(gen() & 0x7fffffff);\n"
      "}\n");
  EXPECT_EQ(sites_of(findings), std::vector<std::string>{"rng-source@3"});
}

// --------------------------------------------------------- parallel model

TEST(ParserParallel, ExtractsRegionCapturesParamsAndBodyExtent) {
  const SourceFile source = make_source(
      "p.cpp",
      "void f(Pool& pool, std::vector<double>& v) {\n"
      "  pool.parallel_for(4, [&](std::size_t begin, std::size_t end) {\n"
      "    v[begin] = 0.0;\n"
      "  });\n"
      "}\n");
  const ParsedFile parsed = parse_file(source);
  ASSERT_EQ(parsed.functions.size(), 1u);
  const FunctionDef& fn = parsed.functions[0];
  ASSERT_EQ(fn.parallel_regions.size(), 1u);
  const ParallelRegion& region = fn.parallel_regions[0];
  EXPECT_TRUE(region.capture_default_ref);
  EXPECT_FALSE(region.capture_default_copy);
  EXPECT_EQ(region.params, (std::vector<std::string>{"begin", "end"}));
  ASSERT_LT(region.body_begin, region.body_end);
  ASSERT_EQ(fn.writes.size(), 1u);
  EXPECT_EQ(fn.writes[0].head, "v");
  EXPECT_NE(fn.writes[0].subscript.find("begin"), std::string::npos);
  EXPECT_GE(fn.writes[0].offset, region.body_begin);
  EXPECT_LT(fn.writes[0].offset, region.body_end);
}

TEST(ParserParallel, MultiDeclaratorAndArrayLocalsAreNotWrites) {
  const SourceFile source = make_source("d.cpp",
                                        "void g() {\n"
                                        "  double a = 1.0, b = 2.0;\n"
                                        "  double buf[4] = {};\n"
                                        "  double x, y;\n"
                                        "  x = a;\n"
                                        "}\n");
  const ParsedFile parsed = parse_file(source);
  ASSERT_EQ(parsed.functions.size(), 1u);
  const FunctionDef& fn = parsed.functions[0];
  std::set<std::string> names;
  for (const VarDecl& local : fn.locals) names.insert(local.name);
  EXPECT_EQ(names, (std::set<std::string>{"a", "b", "buf", "x", "y"}));
  // Declaration initializers are not write sites; `x = a;` is.
  ASSERT_EQ(fn.writes.size(), 1u);
  EXPECT_EQ(fn.writes[0].head, "x");
}

TEST(ParserParallel, AnnotationFlagsOnFunctionsAndFiles) {
  const SourceFile source = make_source(
      "ann.cpp",
      "// analock: bit_exact\n"
      "// analock: thread_safe parallel_region\n"
      "void lanes(std::size_t begin, std::size_t end) {\n"
      "}\n"
      "void plain() {\n"
      "}\n");
  const ParsedFile parsed = parse_file(source);
  EXPECT_TRUE(parsed.bit_exact);
  ASSERT_EQ(parsed.functions.size(), 2u);
  EXPECT_TRUE(parsed.functions[0].is_thread_safe);
  EXPECT_TRUE(parsed.functions[0].is_parallel_region);
  EXPECT_FALSE(parsed.functions[1].is_thread_safe);
  EXPECT_FALSE(parsed.functions[1].is_parallel_region);
}

TEST(EngineParallel, SharedWriteFlaggedLaneDisjointClean) {
  Engine engine;
  engine.add_source(
      "par.cpp",
      "void kernel(Pool& pool, std::vector<double>& out) {\n"
      "  double total = 0.0;\n"
      "  pool.parallel_for(8, [&](std::size_t begin, std::size_t end) {\n"
      "    for (std::size_t i = begin; i < end; ++i) out[i] = 1.0;\n"
      "    total = total + 1.0;\n"
      "  });\n"
      "  out[0] = total;\n"
      "}\n");
  const std::vector<Finding> findings = engine.run();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "parallel-shared-write");
  EXPECT_EQ(findings[0].line, 5);
}

TEST(EngineParallel, CopyCaptureAndAtomicStoresAreClean) {
  Engine engine;
  engine.add_source(
      "clean.cpp",
      "void kernel(Pool& pool) {\n"
      "  std::atomic<int> flag{0};\n"
      "  double scale = 2.0;\n"
      "  pool.parallel_for(8, [&, scale](std::size_t begin,\n"
      "                                  std::size_t end) {\n"
      "    scale = 3.0;\n"
      "    flag = 1;\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(engine.run().empty());
}

TEST(EngineParallel, CrossTuMutableStaticCalleeFlagged) {
  Engine engine;
  engine.add_source(
      "driver.cpp",
      "void driver(Pool& pool) {\n"
      "  pool.parallel_for(4, [&](std::size_t begin, std::size_t end) {\n"
      "    helper();\n"
      "  });\n"
      "}\n");
  engine.add_source("helper.cpp",
                    "int helper() {\n"
                    "  static int count = 0;\n"
                    "  count = count + 1;\n"
                    "  return count;\n"
                    "}\n");
  const std::vector<Finding> findings = engine.run();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "parallel-unsafe-call");
  EXPECT_NE(findings[0].message.find("mutable static"), std::string::npos);
}

TEST(EngineParallel, ThreadSafeAnnotationVouchesForCallee) {
  Engine engine;
  engine.add_source(
      "driver.cpp",
      "void driver(Pool& pool, std::vector<double>& out) {\n"
      "  pool.parallel_for(4, [&](std::size_t begin, std::size_t end) {\n"
      "    out[begin] = pure_kernel(1.0);\n"
      "  });\n"
      "}\n");
  engine.add_source("kernel.cpp",
                    "// analock: thread_safe\n"
                    "double pure_kernel(double x) {\n"
                    "  return x * 2.0;\n"
                    "}\n");
  EXPECT_TRUE(engine.run().empty());
}

TEST(EngineLockOrder, OppositeOrdersFlaggedConsistentOrderClean) {
  Engine cyclic;
  cyclic.add_source("cycle.cpp",
                    "void ab() {\n"
                    "  std::lock_guard<std::mutex> l1(g_m1);\n"
                    "  std::lock_guard<std::mutex> l2(g_m2);\n"
                    "}\n"
                    "void ba() {\n"
                    "  std::lock_guard<std::mutex> l3(g_m2);\n"
                    "  std::lock_guard<std::mutex> l4(g_m1);\n"
                    "}\n");
  const std::vector<std::string> rules = rules_of(cyclic.run());
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "lock-order-cycle"), 2);

  Engine ordered;
  ordered.add_source("ordered.cpp",
                     "void ab() {\n"
                     "  std::lock_guard<std::mutex> l1(g_m1);\n"
                     "  std::lock_guard<std::mutex> l2(g_m2);\n"
                     "}\n"
                     "void ab2() {\n"
                     "  std::lock_guard<std::mutex> l3(g_m1);\n"
                     "  std::lock_guard<std::mutex> l4(g_m2);\n"
                     "}\n");
  EXPECT_TRUE(ordered.run().empty());
}

TEST(EngineFpExact, ScopedToBatchLaneFilesAndAnnotation) {
  Engine in_scope;
  in_scope.add_source(
      "src/rf/receiver_batch.cpp",
      "double f(const std::vector<double>& v) {\n"
      "  return std::reduce(v.begin(), v.end(), 0.0);\n"
      "}\n");
  const std::vector<std::string> rules = rules_of(in_scope.run());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "fp-reassoc"), rules.end());

  Engine out_of_scope;
  out_of_scope.add_source(
      "src/other/helper.cpp",
      "double f(const std::vector<double>& v) {\n"
      "  return std::reduce(v.begin(), v.end(), 0.0);\n"
      "}\n");
  EXPECT_TRUE(out_of_scope.run().empty());

  Engine annotated;
  annotated.add_source("src/other/exact.cpp",
                       "// analock: bit_exact\n"
                       "double g(double a, double b, double c) {\n"
                       "  return std::fma(a, b, c);\n"
                       "}\n");
  const std::vector<std::string> ann_rules = rules_of(annotated.run());
  EXPECT_NE(std::find(ann_rules.begin(), ann_rules.end(), "fp-contract"),
            ann_rules.end());
}

TEST(EngineFpExact, ContractPragmaFlaggedInEveryFile) {
  const std::vector<Finding> findings = run_one(
      "src/other/helper.cpp",
      "#pragma STDC FP_CONTRACT ON\n"
      "#pragma STDC FP_CONTRACT OFF\n"
      "double f(double a, double b, double c) { return a * b + c; }\n");
  EXPECT_EQ(sites_of(findings), std::vector<std::string>{"fp-contract@1"});
}

// ------------------------------------------------------------------ ct-flow

TEST(EngineCtFlow, SecretCompareFlagged) {
  const std::vector<Finding> findings = run_one(
      "src/lock/a.cpp",
      "bool accepts(const Key64& stored_config_key, const Key64& probe) {\n"
      "  return stored_config_key == probe;\n"
      "}\n"
      "bool rejects(const Key64& probe, const Key64& user_key_slot) {\n"
      "  return probe != user_key_slot.bits();\n"
      "}\n");
  EXPECT_EQ(sites_of(findings),
            (std::vector<std::string>{"secret-compare@2",
                                      "secret-compare@5"}));
}

TEST(EngineCtFlow, MemcmpResultCompareIsOnlyCtLeakCall) {
  // tests/verify_fixtures/ct/violation_ct_leak_call.cpp:11.
  const std::vector<Finding> findings = run_one(
      "src/lock/a.cpp",
      "bool tag_check(const unsigned char* private_key,\n"
      "               const unsigned char* probe) {\n"
      "  return std::memcmp(private_key, probe, 8) == 0;\n"
      "}\n");
  EXPECT_EQ(sites_of(findings), std::vector<std::string>{"ct-leak-call@3"});
}

TEST(EngineCtFlow, CompareInsideSecretBranchIsOnlySecretBranch) {
  // tests/verify_fixtures/ct/violation_secret_branch.cpp:11,25,29.
  const std::vector<Finding> findings = run_one(
      "src/lock/a.cpp",
      "int gate_if(std::uint64_t chip_key) {\n"
      "  if ((chip_key & 1u) != 0) return penalty();\n"
      "  return 0;\n"
      "}\n"
      "int gate_ternary(std::uint64_t key_word) {\n"
      "  return (key_word & 1u) != 0 ? 2 : 3;\n"
      "}\n"
      "bool gate_short_circuit(std::uint64_t wrapped_key, bool armed) {\n"
      "  return armed && (wrapped_key & 1u) != 0;\n"
      "}\n");
  EXPECT_EQ(sites_of(findings),
            (std::vector<std::string>{"secret-branch@2", "secret-branch@6",
                                      "secret-branch@9"}));
}

TEST(EngineCtFlow, LengthCompareIsPublic) {
  // tests/verify_fixtures/ct/clean_ct.cpp:28.
  EXPECT_TRUE(run_one(
      "src/lock/a.cpp",
      "int occupancy(\n"
      "    const std::vector<std::optional<std::uint64_t>>& user_keys) {\n"
      "  if (user_keys.size() == 0) return 0;\n"
      "  return user_keys.size() != 1 ? 2 : 1;\n"
      "}\n").empty());
}

TEST(EngineCtFlow, BenignKeyNamesCompareClean) {
  // src/attack/multi_objective.cpp:88: attacker-side candidate keys.
  EXPECT_TRUE(run_one(
      "src/attack/multi_objective.cpp",
      "void sweep(lock::Key64 key) {\n"
      "  const lock::Key64 cand = key.with_field(L::kTestMux, 1);\n"
      "  if (cand == key) return;\n"
      "}\n").empty());
}

TEST(EngineCtFlow, SecretBranchFlagged) {
  Engine engine;
  engine.add_source("src/lock/a.cpp",
                    "int f(unsigned long long puf_key) {\n"
                    "  if (puf_key & 1u) { return 1; }\n"
                    "  return 0;\n"
                    "}\n");
  const std::vector<std::string> rules = rules_of(engine.run());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "secret-branch"),
            rules.end());
}

TEST(EngineCtFlow, SecretIndexFlagged) {
  Engine engine;
  engine.add_source("src/lock/a.cpp",
                    "int probe(const int* table, unsigned long long chip_key) {\n"
                    "  return table[chip_key & 0xFu];\n"
                    "}\n");
  const std::vector<std::string> rules = rules_of(engine.run());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "secret-index"),
            rules.end());
}

TEST(EngineCtFlow, VartimeDivisionFlagged) {
  Engine engine;
  engine.add_source("src/lock/a.cpp",
                    "unsigned long long r(unsigned long long wrapped_key,\n"
                    "                     unsigned long long m) {\n"
                    "  return wrapped_key % m;\n"
                    "}\n");
  const std::vector<std::string> rules = rules_of(engine.run());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "vartime-op"), rules.end());
}

TEST(EngineCtFlow, MemcmpOnSecretIsCtLeakCall) {
  Engine engine;
  engine.add_source(
      "src/lock/a.cpp",
      "bool tag(const unsigned char* private_key, const unsigned char* p) {\n"
      "  return std::memcmp(private_key, p, 8) == 0;\n"
      "}\n");
  const std::vector<std::string> rules = rules_of(engine.run());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "ct-leak-call"),
            rules.end());
}

TEST(EngineCtFlow, BlessedCtEqualComparatorIsClean) {
  Engine engine;
  engine.add_source("src/lock/a.cpp",
                    "bool same(unsigned long long chip_key,\n"
                    "          unsigned long long tag) {\n"
                    "  return ct_equal(chip_key, tag);\n"
                    "}\n");
  EXPECT_TRUE(engine.run().empty());
}

TEST(EngineCtFlow, CtSafeAnnotationExemptsFunctionBody) {
  Engine engine;
  engine.add_source("src/lock/a.cpp",
                    "// analock: ct_safe\n"
                    "unsigned count(unsigned long long true_key) {\n"
                    "  unsigned acc = 0;\n"
                    "  for (int i = 0; i < 64; ++i) acc += (true_key >> i) & 1u;\n"
                    "  return acc;\n"
                    "}\n");
  EXPECT_TRUE(engine.run().empty());
}

TEST(EngineCtFlow, DeclassifiedWithReasonSuppressesNextLine) {
  Engine engine;
  engine.add_source(
      "src/lock/a.cpp",
      "int occupancy(const std::vector<std::optional<int>>& user_keys) {\n"
      "  // analock: declassified(slot occupancy is public state)\n"
      "  if (!user_keys[0]) return 0;\n"
      "  return 1;\n"
      "}\n");
  EXPECT_TRUE(engine.run().empty());
}

TEST(EngineCtFlow, CrossTuReturnsTaintedReachesBranch) {
  Engine engine;
  engine.add_source("src/lock/a.cpp",
                    "unsigned long long unwrap(unsigned long long m) {\n"
                    "  const unsigned long long chip_key = m ^ 0xA5u;\n"
                    "  return chip_key;\n"
                    "}\n");
  engine.add_source("src/lock/b.cpp",
                    "unsigned long long unwrap(unsigned long long m);\n"
                    "int gate(unsigned long long m) {\n"
                    "  if (unwrap(m) != 0) { return 1; }\n"
                    "  return 0;\n"
                    "}\n");
  const std::vector<Finding> findings = engine.run();
  const std::vector<std::string> rules = rules_of(findings);
  ASSERT_NE(std::find(rules.begin(), rules.end(), "secret-branch"),
            rules.end());
  // The branch is in b.cpp; the returns-tainted fact crossed the TU.
  bool in_b = false;
  for (const Finding& f : findings) {
    if (f.rule == "secret-branch" && f.file == "src/lock/b.cpp") in_b = true;
  }
  EXPECT_TRUE(in_b);
}

TEST(EngineCtFlow, StdVocabMemberCallsAreOpaque) {
  // A member call spelled `.load(...)` must NOT resolve to an unrelated
  // free/class function named `load` that returns key material.
  Engine engine;
  engine.add_source("src/lock/mgr.cpp",
                    "unsigned long long load(int slot) {\n"
                    "  unsigned long long user_key = 7ull * slot;\n"
                    "  return user_key;\n"
                    "}\n");
  engine.add_source("src/obs/flag.cpp",
                    "bool snapshot(const std::atomic<bool>& enabled_) {\n"
                    "  if (enabled_.load()) { return true; }\n"
                    "  return false;\n"
                    "}\n");
  for (const Finding& f : engine.run()) {
    EXPECT_NE(f.file, "src/obs/flag.cpp") << f.rule << ": " << f.message;
  }
}

TEST(EngineCtFlow, SecretCalleeNameIsNotABranchWitness) {
  // The *name* of a called function may contain a secret marker; only
  // its resolved returns-tainted fact makes the condition secret.
  Engine engine;
  engine.add_source("src/lock/a.cpp",
                    "bool install_wrapped_key(int slot);\n"
                    "int f(int slot) {\n"
                    "  if (install_wrapped_key(slot)) { return 1; }\n"
                    "  return 0;\n"
                    "}\n");
  EXPECT_TRUE(engine.run().empty());
}

TEST(EngineCtFlow, LengthAndPresenceAccessorsArePublic) {
  Engine engine;
  engine.add_source(
      "src/lock/a.cpp",
      "int n(const std::vector<unsigned long long>& key_words) {\n"
      "  if (key_words.empty()) return 0;\n"
      "  return static_cast<int>(key_words.size());\n"
      "}\n");
  EXPECT_TRUE(engine.run().empty());
}

TEST(EngineCtFlow, ParamFlowsToBranchAcrossCall) {
  // helper branches on its parameter; passing key material at the call
  // site must surface an interprocedural secret-branch there.
  Engine engine;
  engine.add_source("src/lock/h.cpp",
                    "int helper(unsigned long long v) {\n"
                    "  if (v != 0) { return 1; }\n"
                    "  return 0;\n"
                    "}\n");
  engine.add_source("src/lock/c.cpp",
                    "int helper(unsigned long long v);\n"
                    "int caller(unsigned long long id_key) {\n"
                    "  return helper(id_key);\n"
                    "}\n");
  const std::vector<Finding> findings = engine.run();
  bool call_site_flagged = false;
  for (const Finding& f : findings) {
    if (f.rule == "secret-branch" && f.file == "src/lock/c.cpp") {
      call_site_flagged = true;
    }
  }
  EXPECT_TRUE(call_site_flagged);
}

// ------------------------------------------------------------------ sarif

TEST(Sarif, EmitsValidShapeWithFingerprints) {
  Engine engine;
  engine.add_source("leak.cpp",
                    "void f(unsigned long long key_bits) {\n"
                    "  std::printf(\"%llx\", key_bits);\n"
                    "}\n");
  const std::vector<Finding> findings = engine.run();
  ASSERT_FALSE(findings.empty());
  const std::string sarif = to_sarif(findings);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"analock-verify\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"taint-sink\""), std::string::npos);
  EXPECT_NE(sarif.find(kFingerprintKey), std::string::npos);
  // Round trip: the baseline loader must recover the fingerprint set.
  const std::set<std::string> loaded = load_baseline_fingerprints(sarif);
  ASSERT_EQ(loaded.size(), findings.size());
  for (const Finding& f : findings) {
    EXPECT_EQ(loaded.count(f.fingerprint), 1u) << f.fingerprint;
  }
}

TEST(Sarif, FingerprintStableAcrossLineRenumbering) {
  const std::string fp1 =
      compute_fingerprint("taint-sink", "a.cpp", "  printf(x);  ");
  const std::string fp2 =
      compute_fingerprint("taint-sink", "a.cpp", "printf(x);");
  EXPECT_EQ(fp1, fp2);  // whitespace-normalized
  const std::string fp3 =
      compute_fingerprint("taint-call", "a.cpp", "printf(x);");
  EXPECT_NE(fp1, fp3);  // rule participates in identity
  EXPECT_EQ(fp1.size(), 16u);
}

TEST(Sarif, JsonEscaping) {
  std::string out;
  append_json_escaped(out, "a\"b\\c\nd\te");
  EXPECT_EQ(out, "a\\\"b\\\\c\\nd\\te");
}

TEST(RuleCatalog, KnownRulesRoundTrip) {
  for (const RuleInfo& rule : rule_catalog()) {
    EXPECT_TRUE(is_known_rule(rule.id));
  }
  EXPECT_FALSE(is_known_rule("no-such-rule"));
}

}  // namespace
}  // namespace analock::analysis
