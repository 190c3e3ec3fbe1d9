// Deterministic fuzz driver for the check subsystem.
//
// Derives every case from --seed and the case index (no wall clock, no
// global RNG), so a run is exactly reproducible. On the first failure it
// shrinks the case by re-running the same case seed at increasing shrink
// levels (smaller graphs, shorter op sequences, shorter fleet runs) and
// prints the smallest still-failing instance with a replay command:
//
//   check_fuzz [--seed N] [--cases N]
//              [--kind decision|cache|queue|fleet|cluster|predict]
//   check_fuzz --kind queue --replay 0x1234abcd [--level 2]
//
// Exit code 0 = every case passed, 1 = a divergence / invariant violation
// was found (replay line on stdout), 2 = bad usage (including a number that
// does not parse as a whole token, zero cases, or a level above 3).
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "check/differential.h"
#include "check/generators.h"
#include "common/check.h"

namespace {

using lp::check::CaseKind;

constexpr int kMaxLevel = 3;

struct Options {
  std::uint64_t seed = 1;
  std::uint64_t cases = 1000;
  bool has_kind = false;
  CaseKind kind = CaseKind::kDecision;
  bool replay = false;
  std::uint64_t replay_seed = 0;
  int level = 0;
};

bool parse_kind(const char* name, CaseKind* out) {
  for (CaseKind kind :
       {CaseKind::kDecision, CaseKind::kCache, CaseKind::kQueue,
        CaseKind::kFleet, CaseKind::kCluster, CaseKind::kPredict}) {
    if (std::strcmp(name, lp::check::case_kind_name(kind)) == 0) {
      *out = kind;
      return true;
    }
  }
  return false;
}

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: check_fuzz [--seed N] [--cases N] "
      "[--kind decision|cache|queue|fleet|cluster|predict]\n"
      "       check_fuzz --kind K --replay CASE_SEED [--level L]\n");
  std::exit(2);
}

/// A whole unsigned integer token (decimal, or hex with 0x); anything else
/// (empty, signed, trailing characters, out of range) is a usage error.
std::uint64_t parse_u64(const char* text) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) usage();
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 0);
  if (*end != '\0' || errno == ERANGE) usage();
  return value;
}

bool parse_args(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--seed") {
      opts->seed = parse_u64(value());
    } else if (arg == "--cases") {
      opts->cases = parse_u64(value());
      if (opts->cases == 0) usage();
    } else if (arg == "--kind") {
      if (!parse_kind(value(), &opts->kind)) usage();
      opts->has_kind = true;
    } else if (arg == "--replay") {
      opts->replay = true;
      opts->replay_seed = parse_u64(value());
    } else if (arg == "--level") {
      const std::uint64_t level = parse_u64(value());
      if (level > kMaxLevel) usage();
      opts->level = static_cast<int>(level);
    } else {
      usage();
    }
  }
  if (opts->replay && !opts->has_kind) usage();
  return true;
}

/// Runs one case, capturing the failure message. True = passed.
bool try_case(CaseKind kind, std::uint64_t case_seed, int level,
              std::string* error) {
  try {
    lp::check::run_case(kind, case_seed, level);
    return true;
  } catch (const lp::ContractError& e) {
    *error = e.what();
    return false;
  }
}

/// Re-runs the failing case seed at increasing shrink levels and returns
/// the highest (smallest-instance) level that still fails, with its error.
int shrink(CaseKind kind, std::uint64_t case_seed, std::string* error) {
  int best = 0;
  for (int level = 1; level <= kMaxLevel; ++level) {
    std::string shrunk_error;
    if (!try_case(kind, case_seed, level, &shrunk_error)) {
      best = level;
      *error = shrunk_error;
    }
  }
  return best;
}

void report(CaseKind kind, std::uint64_t index, std::uint64_t case_seed,
            int level, const std::string& error) {
  std::printf("FAIL: %s case %llu\n  %s\n",
              lp::check::case_kind_name(kind),
              static_cast<unsigned long long>(index), error.c_str());
  std::printf("replay: check_fuzz --kind %s --replay 0x%llx --level %d\n",
              lp::check::case_kind_name(kind),
              static_cast<unsigned long long>(case_seed), level);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  parse_args(argc, argv, &opts);

  if (opts.replay) {
    std::string error;
    if (try_case(opts.kind, opts.replay_seed, opts.level, &error)) {
      std::printf("PASS: %s case seed 0x%llx level %d\n",
                  lp::check::case_kind_name(opts.kind),
                  static_cast<unsigned long long>(opts.replay_seed),
                  opts.level);
      return 0;
    }
    report(opts.kind, 0, opts.replay_seed, opts.level, error);
    return 1;
  }

  // Round-robin with fleet and cluster under-weighted: a fleet or cluster
  // case simulates seconds of sim time and costs ~100x a decision case.
  const std::vector<CaseKind> cycle = {
      CaseKind::kDecision, CaseKind::kCache,   CaseKind::kQueue,
      CaseKind::kPredict,  CaseKind::kDecision, CaseKind::kCache,
      CaseKind::kQueue,    CaseKind::kDecision, CaseKind::kFleet,
      CaseKind::kDecision, CaseKind::kPredict,  CaseKind::kCache,
      CaseKind::kQueue,    CaseKind::kCluster};

  std::uint64_t per_kind[6] = {0, 0, 0, 0, 0, 0};
  for (std::uint64_t i = 0; i < opts.cases; ++i) {
    const CaseKind kind =
        opts.has_kind ? opts.kind : cycle[i % cycle.size()];
    const std::uint64_t cs = lp::check::case_seed(opts.seed, i);
    std::string error;
    if (!try_case(kind, cs, /*level=*/0, &error)) {
      // Shrink: the same case seed at a higher level is the same scenario
      // drawn smaller; report the smallest instance that still fails.
      std::string shrunk_error;
      const int level = shrink(kind, cs, &shrunk_error);
      report(kind, i, cs, level, level > 0 ? shrunk_error : error);
      return 1;
    }
    ++per_kind[static_cast<int>(kind)];
  }

  std::printf("OK: %llu cases (decision %llu, cache %llu, queue %llu, "
              "fleet %llu, cluster %llu, predict %llu), seed %llu\n",
              static_cast<unsigned long long>(opts.cases),
              static_cast<unsigned long long>(per_kind[0]),
              static_cast<unsigned long long>(per_kind[1]),
              static_cast<unsigned long long>(per_kind[2]),
              static_cast<unsigned long long>(per_kind[3]),
              static_cast<unsigned long long>(per_kind[4]),
              static_cast<unsigned long long>(per_kind[5]),
              static_cast<unsigned long long>(opts.seed));
  return 0;
}
