/// \file dvfs_fuzz.cpp
/// \brief Differential fuzzer CLI.
///
/// Drives randomized instances through the oracle pairs (production
/// algorithm vs independent reference), shrinks any counterexample to a
/// minimal instance, and prints the seed plus a paste-ready regression
/// test. See docs/testing.md.
///
///   dvfs_fuzz --oracle all --instances 500 --seed 7
///   dvfs_fuzz --oracle ltl_vs_bf --instances 2000 --artifact-dir out/
///   dvfs_fuzz --replay ../tests/corpus          # deterministic re-check
///   dvfs_fuzz --oracle ltl_vs_bf --inject ltl-off-by-one   # demo: must FAIL
///
/// Exit codes: 0 all checks passed, 1 a counterexample was found (or a
/// replayed corpus file failed), 2 usage/precondition error.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "proptest/proptest.h"
#include "dvfs/util/args.h"
#include "tool_common.h"

namespace {

namespace pt = dvfs::proptest;

constexpr const char* kUsage = R"(usage: dvfs_fuzz [options]
  --oracle NAME|all     oracle pair to fuzz (default: all)
  --instances N         instances per oracle (default: 500)
  --seed S              base seed (default: 1)
  --artifact-dir DIR    write shrunk counterexamples here
                        (default: fuzz-artifacts)
  --replay PATH         replay a .corpus file or a directory of them
  --inject WHAT         swap in a known-broken subject to demo detection
                        (ltl-off-by-one)
  --emit                write every generated (and passing) instance to the
                        artifact dir as .corpus files — seeds a new corpus
  --list                print oracle names and exit
)";

std::vector<std::string> oracle_selection(const std::string& flag) {
  if (flag != "all") {
    DVFS_REQUIRE(
        std::any_of(std::begin(pt::kOracleNames), std::end(pt::kOracleNames),
                    [&](const char* n) { return flag == n; }),
        "unknown oracle `" + flag + "` (try --list)");
    return {flag};
  }
  return {std::begin(pt::kOracleNames), std::end(pt::kOracleNames)};
}

int replay(const std::string& path, const pt::OracleHooks& hooks) {
  std::vector<std::string> files;
  if (std::filesystem::is_directory(path)) {
    files = pt::corpus_files(path);
    DVFS_REQUIRE(!files.empty(), "no .corpus files under " + path);
  } else {
    files.push_back(path);
  }
  int failures = 0;
  for (const std::string& file : files) {
    const pt::Verdict verdict = pt::replay_corpus_file(file, hooks);
    if (verdict) {
      ++failures;
      std::cout << "FAIL " << file << "\n  " << *verdict << '\n';
    } else {
      std::cout << "ok   " << file << '\n';
    }
  }
  std::cout << files.size() << " corpus file(s), " << failures
            << " failure(s)\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return dvfs::tools::run_tool([&]() -> int {
    const dvfs::util::Args args(argc, argv,
                                {"oracle", "instances", "seed", "artifact-dir",
                                 "replay", "inject", "emit", "list", "help"});
    if (args.has("help")) {
      std::cout << kUsage;
      return 0;
    }
    if (args.has("list")) {
      for (const char* n : pt::kOracleNames) std::cout << n << '\n';
      return 0;
    }

    pt::OracleHooks hooks;
    if (args.has("inject")) {
      const std::string what = args.get_string("inject");
      DVFS_REQUIRE(what == "ltl-off-by-one",
                   "unknown injection `" + what + "`");
      hooks.single_core = [](std::span<const dvfs::core::Task> ts,
                             const dvfs::core::CostTable& t) {
        return pt::inject::longest_task_last_off_by_one(ts, t);
      };
    }

    if (args.has("replay")) {
      return replay(args.get_string("replay"), hooks);
    }

    const std::size_t instances = args.get_u64("instances", 500);
    const std::uint64_t seed = args.get_u64("seed", 1);
    const std::string artifact_dir =
        args.get_string("artifact-dir", "fuzz-artifacts");

    if (args.has("emit")) {
      // Corpus bootstrap: generate, verify, and save instances verbatim.
      std::filesystem::create_directories(artifact_dir);
      for (const std::string& oracle :
           oracle_selection(args.get_string("oracle", "all"))) {
        for (std::size_t i = 0; i < instances; ++i) {
          const std::uint64_t s = pt::derive_seed(seed, i);
          const pt::Instance inst = pt::generate_instance(oracle, s);
          const pt::Verdict verdict = pt::check_instance(inst, hooks);
          DVFS_REQUIRE(!verdict,
                       "refusing to emit a failing instance: " + *verdict);
          char name[64];
          std::snprintf(name, sizeof name, "%s-%016llx.corpus",
                        oracle.c_str(), static_cast<unsigned long long>(s));
          std::ofstream os(artifact_dir + "/" + name);
          pt::write_instance(inst, os);
          std::cout << "emitted " << artifact_dir << '/' << name << '\n';
        }
      }
      return 0;
    }

    bool any_failed = false;
    std::size_t total = 0;
    for (const std::string& oracle :
         oracle_selection(args.get_string("oracle", "all"))) {
      pt::FuzzOptions opts;
      opts.oracle = oracle;
      opts.instances = instances;
      opts.base_seed = seed;
      opts.artifact_dir = artifact_dir;
      opts.hooks = hooks;
      opts.log = &std::cout;
      const pt::FuzzReport report = pt::run_fuzz(opts);
      total += report.ran;
      if (report.failed) {
        any_failed = true;
      } else {
        std::cout << "ok   " << oracle << ": " << report.ran
                  << " instances\n";
      }
    }
    std::cout << total << " instance(s) total, "
              << (any_failed ? "counterexample found" : "all passed") << '\n';
    return any_failed ? 1 : 0;
  });
}
