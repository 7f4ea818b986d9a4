// Fig. 7 — resilience of the unmonitored APS under fault injection:
// (a) hazard coverage per patient, (b) time-to-hazard distribution.
// Streamed: the campaign folds into BaselineStats, no trace retained.
//
// Paper shape: overall coverage ~33.9% on Glucosym with a wide per-patient
// spread (6.7%..92.4%); mean TTH ~3 h with a small negative-TTH tail.
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "common/stats.h"
#include "sim/stack.h"

int main(int argc, char** argv) {
  using namespace aps;
  const CliFlags flags(argc, argv);
  const auto config = bench::config_from_flags(flags, /*needs_ml=*/false);
  flags.reject_unknown();
  bench::print_header("Fig. 7: baseline APS resilience (no monitor)",
                      config);
  bench::BenchRecorder recorder("fig7_resilience");

  ThreadPool pool;
  const auto stack = sim::glucosym_openaps_stack();
  core::BaselineStats stats;
  recorder.time_stage_counted("campaign[streamed]", [&] {
    stats = core::run_baseline_stats(stack, config, pool);
    return stats.resilience.total_runs;
  });

  // --- (a) hazard coverage per patient.
  TextTable coverage({"patient", "runs", "hazards", "coverage"});
  for (std::size_t p = 0; p < stats.by_patient.size(); ++p) {
    const auto& bucket = stats.by_patient[p];
    const auto patient = stack.make_patient(static_cast<int>(p));
    coverage.add_row({patient->name(), std::to_string(bucket.runs),
                      std::to_string(bucket.hazards),
                      TextTable::pct(bucket.coverage())});
  }
  std::printf("(a) hazard coverage per patient\n");
  coverage.print(std::cout);

  const auto& res = stats.resilience;
  std::printf("\noverall hazard coverage: %s (paper: 33.9%%)\n",
              TextTable::pct(res.hazard_coverage()).c_str());

  // --- (b) TTH distribution.
  std::printf("\n(b) time-to-hazard distribution (minutes)\n");
  TextTable tth({"bin (min)", "count"});
  const double bin_width = 60.0;
  const auto bins =
      histogram(res.tth_min, -60.0, 720.0, static_cast<std::size_t>(13));
  for (std::size_t b = 0; b < bins.size(); ++b) {
    const double lo = -60.0 + static_cast<double>(b) * bin_width;
    std::string bin = "[";
    bin += TextTable::num(lo, 0);
    bin += ',';
    bin += TextTable::num(lo + bin_width, 0);
    bin += ')';
    tth.add_row({bin, std::to_string(bins[b])});
  }
  tth.print(std::cout);
  std::printf(
      "\nmean TTH %.0f min (paper: ~180 min), std %.0f min, negative-TTH "
      "fraction %s (paper: 7.1%%)\n",
      res.mean_tth_min(), stddev(res.tth_min),
      TextTable::pct(res.negative_tth_fraction()).c_str());
  return 0;
}
