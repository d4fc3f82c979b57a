// FP bit-exactness rules for batch-lane code.
//
// The SoA batch engine promises bit-identical results for any
// ANALOCK_THREADS value, so lane code must avoid every construct whose
// floating-point result depends on association order or contraction:
//
// fp-reassoc — `std::reduce` / `std::transform_reduce` (unspecified
// association), `std::accumulate` driven by an execution policy,
// pairwise/tree sums (`v[i] = v[2*i] + v[2*i+1]` style, whose shape
// depends on the split count), and thread-count-dependent accumulation
// (a shared floating-point `+=` / `-=` inside a parallel region — the
// partial-sum boundaries move with the worker count).
//
// fp-contract — `std::fma`/`fmaf` calls: the fused result differs from
// the unfused `a*b + c` the scalar reference path computes. Also
// `#pragma STDC FP_CONTRACT ON`, which licenses that fusion for a whole
// translation unit and is flagged in every file.
//
// Scope: files named receiver_batch.cpp, batch_evaluator.cpp, or
// fft_plan.cpp (the batch lane set), plus any file annotated
// `// analock: bit_exact`. Everything else may trade exactness for
// speed freely. Compiler flags that do the same build-wide
// (-ffast-math, -ffp-contract=fast, ...) are rejected at configure time
// by cmake/fp_flags.cmake.
#include <cctype>
#include <string>

#include "analysis/analyses.h"
#include "analysis/lexer.h"

namespace analock::analysis {

namespace {

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool in_scope(const ParsedFile& file) {
  if (file.bit_exact) return true;
  const std::string base = basename_of(file.source->path);
  return base == "receiver_batch.cpp" || base == "batch_evaluator.cpp" ||
         base == "fft_plan.cpp";
}

bool type_is_float(const std::string& type) {
  return contains_word(type, "double") || contains_word(type, "float") ||
         type.find("cplx") != std::string::npos ||
         type.find("complex") != std::string::npos;
}

bool looks_like_accumulator(const std::string& name) {
  return name.find("sum") != std::string::npos ||
         name.find("total") != std::string::npos ||
         name.find("acc") != std::string::npos ||
         name.find("energy") != std::string::npos;
}

/// Offset ranges of every concurrent scope in `fn`.
struct Range {
  std::size_t begin = 0;
  std::size_t end = 0;
};

std::vector<Range> concurrent_ranges(const FunctionDef& fn) {
  std::vector<Range> ranges;
  for (const ParallelRegion& region : fn.parallel_regions) {
    ranges.push_back({region.body_begin, region.body_end});
  }
  if (fn.is_parallel_region) {
    ranges.push_back({fn.body_begin, fn.body_end});
  }
  return ranges;
}

bool inside_any(const std::vector<Range>& ranges, std::size_t offset) {
  for (const Range& r : ranges) {
    if (offset >= r.begin && offset < r.end) return true;
  }
  return false;
}

/// Count whole-word occurrences of `word` followed by '[' in `text`.
int count_indexed_uses(const std::string& text, const std::string& word) {
  int count = 0;
  std::size_t pos = 0;
  const std::string needle = word + "[";
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || !is_word_char(text[pos - 1])) ++count;
    pos += needle.size();
  }
  return count;
}

/// Offset of the '#' of every `#pragma STDC FP_CONTRACT ON` line.
std::vector<std::size_t> fp_contract_pragmas(const SourceFile& source) {
  std::vector<std::size_t> out;
  const std::string_view code = source.stripped;
  std::size_t pos = 0;
  while ((pos = code.find("FP_CONTRACT", pos)) != std::string_view::npos) {
    const std::size_t line_begin =
        source.line_starts[static_cast<std::size_t>(source.line_of(pos) - 1)];
    std::size_t line_end = code.find('\n', pos);
    if (line_end == std::string_view::npos) line_end = code.size();
    pos = line_end;
    // Words of the directive: '#' pragma STDC FP_CONTRACT ON.
    std::vector<std::string_view> words;
    std::size_t hash = std::string_view::npos;
    for (std::size_t k = line_begin; k < line_end;) {
      const char c = code[k];
      if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        ++k;
      } else if (c == '#' && words.empty() && hash == std::string_view::npos) {
        hash = k++;
      } else {
        std::size_t e = k;
        while (e < line_end &&
               std::isspace(static_cast<unsigned char>(code[e])) == 0) {
          ++e;
        }
        words.push_back(code.substr(k, e - k));
        k = e;
      }
    }
    if (hash != std::string_view::npos && words.size() == 4 &&
        words[0] == "pragma" && words[1] == "STDC" &&
        words[2] == "FP_CONTRACT" && words[3] == "ON") {
      out.push_back(hash);
    }
  }
  return out;
}

}  // namespace

void run_fp_exact_analysis(const std::vector<ParsedFile>& files,
                           std::vector<Finding>& out) {
  for (const ParsedFile& file : files) {
    const auto emit = [&](std::size_t offset, const char* rule,
                          std::string message) {
      out.push_back(
          Finding::at(*file.source, offset, rule, std::move(message)));
    };
    for (const std::size_t offset : fp_contract_pragmas(*file.source)) {
      emit(offset, "fp-contract",
           "#pragma STDC FP_CONTRACT ON lets the compiler fuse a*b+c into "
           "one rounding across this translation unit; the result differs "
           "from the unfused scalar reference path");
    }
    if (!in_scope(file)) continue;
    for (const FunctionDef& fn : file.functions) {
      const std::vector<Range> concurrent = concurrent_ranges(fn);

      for (const CallSite& call : fn.calls) {
        if (call.base_name == "reduce" ||
            call.base_name == "transform_reduce") {
          emit(call.offset, "fp-reassoc",
               "std::" + call.base_name +
                   "() has unspecified association order; bit-exact lane "
                   "code must use a sequential left fold");
          continue;
        }
        if (call.base_name == "accumulate") {
          bool has_policy = false;
          for (const std::string& arg : call.args) {
            if (arg.find("execution::") != std::string::npos ||
                arg.find("par") == 0) {
              has_policy = true;
              break;
            }
          }
          if (has_policy) {
            emit(call.offset, "fp-reassoc",
                 "std::accumulate() with an execution policy reassociates "
                 "the reduction; bit-exact lane code must fold "
                 "sequentially");
          }
          continue;
        }
        if (call.base_name == "fma" || call.base_name == "fmaf") {
          emit(call.offset, "fp-contract",
               "std::" + call.base_name +
                   "() fuses the multiply-add; the result differs from the "
                   "unfused a*b+c computed by the scalar reference path");
        }
      }

      for (const WriteSite& write : fn.writes) {
        if (!write.is_compound) {
          // Pairwise/tree sum: dst[i] = src[2*i] + src[2*i+1] — the
          // tree shape (and thus rounding) depends on the split count.
          if (!write.subscript.empty() &&
              count_indexed_uses(write.rhs, write.head) >= 2 &&
              (write.rhs.find('+') != std::string::npos ||
               write.rhs.find('-') != std::string::npos)) {
            emit(write.offset, "fp-reassoc",
                 "pairwise/tree combination of '" + write.head +
                     "' elements; the reduction shape is "
                     "split-count-dependent, so results vary with the "
                     "partition");
          }
          continue;
        }
        // Thread-count-dependent accumulation: a shared accumulator
        // += inside a concurrent scope moves its partial-sum
        // boundaries with ANALOCK_THREADS.
        if (!inside_any(concurrent, write.offset)) continue;
        bool region_local = false;
        std::string type;
        for (const VarDecl& local : fn.locals) {
          if (local.name != write.head) continue;
          type = local.type;
          if (inside_any(concurrent, local.offset)) region_local = true;
        }
        if (region_local) continue;
        for (const Param& p : fn.params) {
          if (p.name == write.head) type = p.type;
        }
        const bool floaty = type_is_float(type) ||
                            (type.empty() && looks_like_accumulator(write.head));
        if (!floaty) continue;
        emit(write.offset, "fp-reassoc",
             "'" + write.head +
                 "' accumulates across lanes inside a parallel region; "
                 "partial-sum boundaries move with the thread count, so "
                 "the rounded result is not bit-exact");
      }
    }
  }
}

}  // namespace analock::analysis
