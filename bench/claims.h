// Shared plumbing of the claim benches: the PASS/FAIL claim printer behind
// their exit code, and the record-by-record comparison of two same-seed
// runs behind their "deterministic" field.
#pragma once

#include <cstddef>
#include <cstdio>
#include <optional>
#include <span>

#include "serve/fleet.h"

namespace lp::benchutil {

/// One executable claim of a bench: what it says and whether it held.
struct Claim {
  const char* text;
  bool ok;
};

/// Prints every claim as PASS/FAIL and returns true when all of them hold.
/// A bench exits 1 when this returns false, so a run (and therefore a
/// golden) that breaks a claim fails ctest.
inline bool print_claims(std::span<const Claim> claims) {
  bool ok = true;
  std::printf("\n");
  for (const Claim& c : claims) {
    std::printf("%s %s\n", c.ok ? "PASS" : "FAIL", c.text);
    ok = ok && c.ok;
  }
  if (!ok) std::printf("\nclaim check FAILED\n");
  return ok;
}

/// Compares the record streams of two same-seed runs field by field
/// (start, cut point, latency, outcome, last failure). Returns the number
/// of records when every client's stream matches, nullopt at the first
/// divergence.
inline std::optional<std::size_t> identical_records(
    const serve::RunResult& a, const serve::RunResult& b) {
  if (a.clients.size() != b.clients.size()) return std::nullopt;
  std::size_t records = 0;
  for (std::size_t i = 0; i < a.clients.size(); ++i) {
    const auto& ra = a.clients[i].records;
    const auto& rb = b.clients[i].records;
    if (ra.size() != rb.size()) return std::nullopt;
    for (std::size_t j = 0; j < ra.size(); ++j)
      if (ra[j].start != rb[j].start || ra[j].p != rb[j].p ||
          ra[j].total_sec != rb[j].total_sec ||
          ra[j].outcome != rb[j].outcome ||
          ra[j].last_failure != rb[j].last_failure)
        return std::nullopt;
    records += ra.size();
  }
  return records;
}

}  // namespace lp::benchutil
