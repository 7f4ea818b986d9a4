// Fig. 3 — loss-function shapes for STL threshold learning.
//
// Regenerates the qualitative comparison of MSE/MAE (panel a) against the
// TeLEx tightness function and the paper's TMEE (panel b): TMEE blows up
// exponentially on the violation side (r < 0), grows ~linearly in the
// slack, and has its minimum at a small positive robustness margin; the
// TeLEx minimum sits much further from 0 (not tight); MSE/MAE are blind to
// the sign of r. Also reports the resulting learned-threshold tightness on
// a synthetic violation set.
#include <cstdio>
#include <iostream>
#include <vector>

#include "common/cli.h"
#include "common/table.h"
#include "learn/loss.h"
#include "learn/stl_learning.h"

int main(int argc, char** argv) {
  using namespace aps;
  const CliFlags flags(argc, argv);
  std::printf("== Fig. 3: loss functions over robustness margin r ==\n\n");

  const std::vector<learn::LossKind> kinds = {
      learn::LossKind::kMse, learn::LossKind::kMae, learn::LossKind::kTelex,
      learn::LossKind::kTmee};

  TextTable curve({"r", "MSE", "MAE", "TeLEx", "TMEE"});
  const double lo = flags.get_double("lo", -2.0);
  const double hi = flags.get_double("hi", 4.0);
  const double step = flags.get_double("step", 0.5);
  flags.reject_unknown();
  for (double r = lo; r <= hi + 1e-9; r += step) {
    curve.add_row({TextTable::num(r, 1),
                   TextTable::num(learn::mse_loss(r), 3),
                   TextTable::num(learn::mae_loss(r), 3),
                   TextTable::num(learn::telex_loss(r), 3),
                   TextTable::num(learn::tmee_loss(r), 3)});
  }
  curve.print(std::cout);

  std::printf("\nper-sample loss minima (distance of learned threshold from "
              "the data edge):\n");
  TextTable minima({"loss", "argmin r*", "note"});
  for (const auto kind : kinds) {
    const double argmin = learn::loss_argmin(kind);
    const char* note =
        kind == learn::LossKind::kTmee   ? "tight & safe (small r* > 0)"
        : kind == learn::LossKind::kTelex ? "safe but slack (large r*)"
                                          : "violation-blind (r* = 0)";
    minima.add_row({learn::to_string(kind), TextTable::num(argmin, 3), note});
  }
  minima.print(std::cout);

  // Learned thresholds on a synthetic violation set: IOB values of
  // hazardous samples clustered around 2.0 U; an upper-bound rule
  // (IOB < beta) must cover them all, as tightly as possible.
  std::printf("\nlearned upper-bound threshold over violation set "
              "{1.8, 1.9, 2.0, 2.1, 2.2} U:\n");
  TextTable learned({"loss", "beta", "min margin", "violations covered"});
  for (const auto kind : kinds) {
    learn::ThresholdProblem problem;
    problem.violation_values = {1.8, 1.9, 2.0, 2.1, 2.2};
    problem.side = learn::BoundSide::kUpperBound;
    problem.lower_limit = 0.0;
    problem.upper_limit = 20.0;
    problem.loss = kind;
    const auto result = learn::learn_threshold(problem);
    learned.add_row({learn::to_string(kind),
                     TextTable::num(result->beta, 3),
                     TextTable::num(result->min_margin, 3),
                     result->min_margin >= 0.0 ? "all" : "NO (unsafe)"});
  }
  learned.print(std::cout);
  std::printf(
      "\nexpected shape: MSE/MAE park beta inside the data (unsafe);\n"
      "TeLEx covers everything but with a slack margin; TMEE covers\n"
      "everything with the smallest safe margin.\n");
  return 0;
}
