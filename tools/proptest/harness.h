/// \file harness.h
/// \brief The fuzz loop: generate -> check -> shrink -> report.
///
/// run_fuzz() drives `instances` randomized instances through one oracle.
/// On the first failure it shrinks the instance to a local minimum,
/// prints the reproduction seed, the minimal counterexample in corpus
/// format, and a ready-to-paste gtest regression body, and (optionally)
/// writes the counterexample to an artifact directory. Promoting such a
/// file into `tests/corpus/` turns it into a permanent regression test:
/// ctest replays every corpus file deterministically.
#pragma once

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "proptest/generate.h"
#include "proptest/oracles.h"
#include "proptest/shrink.h"

namespace dvfs::proptest {

struct FuzzOptions {
  std::string oracle;
  std::size_t instances = 500;
  std::uint64_t base_seed = 1;
  std::string artifact_dir;    ///< "" = do not write counterexample files
  OracleHooks hooks;           ///< subject injection (tool's --inject mode)
  std::ostream* log = nullptr; ///< failure/progress reporting; null = silent
};

struct FuzzReport {
  std::size_t ran = 0;       ///< instances executed (stops at first failure)
  bool failed = false;
  std::uint64_t failing_seed = 0;
  std::string message;       ///< oracle mismatch description
  Instance shrunk;           ///< minimal counterexample (valid iff failed)
  ShrinkStats shrink_stats;
};

namespace harness_detail {

inline std::string seed_hex(std::uint64_t seed) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(seed));
  return buf;
}

/// A compilable gtest body reproducing the counterexample; paste into
/// tests/test_differential.cpp (or anything linking the proptest headers).
inline std::string regression_test_body(const Instance& inst) {
  std::ostringstream os;
  os << "TEST(DifferentialRegression, "
     << (inst.oracle.empty() ? std::string("Shrunk") : inst.oracle) << "_"
     << seed_hex(inst.seed) << ") {\n"
     << "  const char* corpus = R\"corpus(" << instance_to_string(inst)
     << ")corpus\";\n"
     << "  const auto verdict = dvfs::proptest::check_instance(\n"
     << "      dvfs::proptest::parse_instance(std::string(corpus)));\n"
     << "  EXPECT_FALSE(verdict.has_value()) << verdict.value_or(\"\");\n"
     << "}\n";
  return os.str();
}

}  // namespace harness_detail

/// Fuzzes one oracle; stops at (and shrinks) the first failure.
[[nodiscard]] inline FuzzReport run_fuzz(const FuzzOptions& opts) {
  FuzzReport report;
  for (std::size_t i = 0; i < opts.instances; ++i) {
    const std::uint64_t seed = derive_seed(opts.base_seed, i);
    const Instance inst = generate_instance(opts.oracle, seed);
    const Verdict verdict = check_instance(inst, opts.hooks);
    ++report.ran;
    if (!verdict) continue;

    report.failed = true;
    report.failing_seed = seed;
    const FailPredicate still_fails = [&](const Instance& candidate) {
      return check_instance(candidate, opts.hooks).has_value();
    };
    report.shrunk =
        shrink_instance(inst, still_fails, &report.shrink_stats);
    // Re-derive the message from the shrunk instance (clearer numbers).
    report.message = check_instance(report.shrunk, opts.hooks)
                         .value_or(*verdict);

    if (!opts.artifact_dir.empty()) {
      std::filesystem::create_directories(opts.artifact_dir);
      const std::string path = opts.artifact_dir + "/" + opts.oracle + "-" +
                               harness_detail::seed_hex(seed) + ".corpus";
      std::ofstream os(path);
      write_instance(report.shrunk, os);
      if (opts.log) *opts.log << "counterexample written to " << path << '\n';
    }
    if (opts.log) {
      std::ostream& log = *opts.log;
      log << "FAIL oracle=" << opts.oracle << " instance=" << i
          << " seed=0x" << harness_detail::seed_hex(seed) << '\n'
          << "  " << report.message << '\n'
          << "  shrunk to " << report.shrunk.tasks.size() << " task(s), "
          << report.shrunk.num_rates() << " rate(s), "
          << report.shrunk.cores.size() << " core(s) ["
          << report.shrink_stats.predicate_calls << " predicate calls, "
          << report.shrink_stats.accepted << " reductions]\n"
          << "--- minimal counterexample (corpus format) ---\n"
          << instance_to_string(report.shrunk)
          << "--- ready-to-paste regression test ---\n"
          << harness_detail::regression_test_body(report.shrunk);
    }
    return report;
  }
  return report;
}

/// All `.corpus` files under `dir`, sorted by filename so replay order is
/// deterministic across runs and machines.
[[nodiscard]] inline std::vector<std::string> corpus_files(
    const std::string& dir) {
  std::vector<std::string> files;
  if (!std::filesystem::is_directory(dir)) return files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".corpus") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Replays one corpus file through its recorded oracle.
[[nodiscard]] inline Verdict replay_corpus_file(const std::string& path,
                                                const OracleHooks& hooks = {}) {
  std::ifstream is(path);
  DVFS_REQUIRE(is.good(), "cannot open corpus file: " + path);
  return check_instance(parse_instance(is), hooks);
}

}  // namespace dvfs::proptest
