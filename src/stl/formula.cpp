#include "stl/formula.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace aps::stl {

namespace {

/// Clamp a future-interval endpoint to the trace and return [lo, hi] sample
/// indices; empty (lo > hi) if the window lies outside the trace.
std::pair<int, int> future_window(const Trace& trace, int k,
                                  const Interval& iv) {
  const int last = static_cast<int>(trace.length()) - 1;
  const int lo = k + iv.lo;
  const int hi = iv.hi == Interval::kUnbounded
                     ? last
                     : std::min(last, k + iv.hi);
  return {std::max(lo, 0), hi};
}

std::pair<int, int> past_window(int k, const Interval& iv) {
  const int hi = k - iv.lo;
  const int lo = iv.hi == Interval::kUnbounded ? 0 : std::max(0, k - iv.hi);
  return {lo, hi};
}

/// "[lo,hi]" or "[lo,end]", appended in place. The to_string methods build
/// their result by appending into one string: GCC 12's -Wrestrict reports
/// false positives on chains of std::string operator+.
void append_bound(std::string& out, const Interval& iv) {
  out += '[';
  out += std::to_string(iv.lo);
  out += ',';
  out += iv.hi == Interval::kUnbounded ? "end" : std::to_string(iv.hi);
  out += ']';
}

}  // namespace

const char* to_string(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
    case CmpOp::kEq: return "==";
  }
  return "?";
}

Threshold Threshold::literal(double v) {
  Threshold t;
  t.value_ = v;
  return t;
}

Threshold Threshold::param(std::string name) {
  Threshold t;
  t.name_ = std::move(name);
  return t;
}

double Threshold::resolve(const ParamMap& params) const {
  if (!is_param()) return value_;
  const auto it = params.find(name_);
  if (it == params.end()) {
    throw std::invalid_argument("STL: unbound parameter '" + name_ + "'");
  }
  return it->second;
}

std::string Threshold::to_string() const {
  if (is_param()) return "{" + name_ + "}";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value_);
  return buf;
}

void Formula::collect_params(std::set<std::string>& out) const {
  collect_params_impl(out);
}

// ---- Predicate -------------------------------------------------------------

Predicate::Predicate(std::string var, CmpOp op, Threshold threshold,
                     bool is_boolean_atom)
    : var_(std::move(var)),
      op_(op),
      threshold_(std::move(threshold)),
      boolean_atom_(is_boolean_atom) {}

double Predicate::robustness(const Trace& trace, int k,
                             const ParamMap& params) const {
  if (k < 0 || k >= static_cast<int>(trace.length())) {
    // Out-of-trace evaluation: vacuously violated with boolean magnitude so
    // temporal windows that fall off the trace behave conservatively.
    return -kBoolRobustness;
  }
  const double x = trace.at(var_)[static_cast<std::size_t>(k)];
  const double c = threshold_.resolve(params);
  double margin = 0.0;
  switch (op_) {
    case CmpOp::kLt:
    case CmpOp::kLe:
      margin = c - x;
      break;
    case CmpOp::kGt:
    case CmpOp::kGe:
      margin = x - c;
      break;
    case CmpOp::kEq:
      margin = std::abs(x - c) < 1e-9 ? kBoolRobustness : -kBoolRobustness;
      break;
  }
  if (boolean_atom_) {
    return margin >= 0.0 ? kBoolRobustness : -kBoolRobustness;
  }
  return margin;
}

std::string Predicate::to_string() const {
  return "(" + var_ + " " + aps::stl::to_string(op_) + " " +
         threshold_.to_string() + ")";
}

void Predicate::collect_params_impl(std::set<std::string>& out) const {
  if (threshold_.is_param()) out.insert(threshold_.name());
}

// ---- Boolean ----------------------------------------------------------------

Not::Not(FormulaPtr child) : child_(std::move(child)) {
  assert(child_ != nullptr);
}

double Not::robustness(const Trace& trace, int k,
                       const ParamMap& params) const {
  return -child_->robustness(trace, k, params);
}

std::string Not::to_string() const {
  std::string out = "!";
  out += child_->to_string();
  return out;
}

void Not::collect_params_impl(std::set<std::string>& out) const {
  child_->collect_params(out);
}

BoolExpr::BoolExpr(BoolOp op, FormulaPtr lhs, FormulaPtr rhs)
    : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {
  assert(lhs_ != nullptr && rhs_ != nullptr);
}

double BoolExpr::robustness(const Trace& trace, int k,
                            const ParamMap& params) const {
  const double a = lhs_->robustness(trace, k, params);
  switch (op_) {
    case BoolOp::kAnd:
      // Short-circuit on strongly false lhs: min can only go lower.
      if (a <= -kBoolRobustness) return a;
      return std::min(a, rhs_->robustness(trace, k, params));
    case BoolOp::kOr:
      if (a >= kBoolRobustness) return a;
      return std::max(a, rhs_->robustness(trace, k, params));
    case BoolOp::kImplies:
      if (-a >= kBoolRobustness) return -a;
      return std::max(-a, rhs_->robustness(trace, k, params));
  }
  return 0.0;
}

std::string BoolExpr::to_string() const {
  const char* op = op_ == BoolOp::kAnd   ? " and "
                   : op_ == BoolOp::kOr ? " or "
                                        : " -> ";
  std::string out = "(";
  out += lhs_->to_string();
  out += op;
  out += rhs_->to_string();
  out += ')';
  return out;
}

void BoolExpr::collect_params_impl(std::set<std::string>& out) const {
  lhs_->collect_params(out);
  rhs_->collect_params(out);
}

// ---- Unary temporal ----------------------------------------------------------

Temporal::Temporal(TemporalOp op, Interval iv, FormulaPtr child)
    : op_(op), iv_(iv), child_(std::move(child)) {
  assert(child_ != nullptr);
  assert(iv_.lo >= 0);
  assert(iv_.hi == Interval::kUnbounded || iv_.hi >= iv_.lo);
}

double Temporal::robustness(const Trace& trace, int k,
                            const ParamMap& params) const {
  const bool is_past =
      op_ == TemporalOp::kHistorically || op_ == TemporalOp::kOnce;
  const bool is_min =
      op_ == TemporalOp::kGlobally || op_ == TemporalOp::kHistorically;
  const auto [lo, hi] =
      is_past ? past_window(k, iv_) : future_window(trace, k, iv_);
  if (lo > hi) {
    // Empty window: G vacuously true, F vacuously false (standard bounded
    // semantics at trace edges).
    return is_min ? kBoolRobustness : -kBoolRobustness;
  }
  double acc = is_min ? kBoolRobustness : -kBoolRobustness;
  for (int i = lo; i <= hi; ++i) {
    const double r = child_->robustness(trace, i, params);
    acc = is_min ? std::min(acc, r) : std::max(acc, r);
  }
  return acc;
}

std::string Temporal::to_string() const {
  const char* name = nullptr;
  switch (op_) {
    case TemporalOp::kGlobally: name = "G"; break;
    case TemporalOp::kEventually: name = "F"; break;
    case TemporalOp::kHistorically: name = "H"; break;
    case TemporalOp::kOnce: name = "O"; break;
  }
  std::string out = name;
  append_bound(out, iv_);
  out += ' ';
  out += child_->to_string();
  return out;
}

void Temporal::collect_params_impl(std::set<std::string>& out) const {
  child_->collect_params(out);
}

// ---- Binary temporal ----------------------------------------------------------

BinaryTemporal::BinaryTemporal(BinaryTemporalOp op, Interval iv, FormulaPtr lhs,
                               FormulaPtr rhs)
    : op_(op), iv_(iv), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {
  assert(lhs_ != nullptr && rhs_ != nullptr);
}

double BinaryTemporal::robustness(const Trace& trace, int k,
                                  const ParamMap& params) const {
  if (op_ == BinaryTemporalOp::kUntil) {
    const auto [lo, hi] = future_window(trace, k, iv_);
    double best = -kBoolRobustness;
    for (int j = lo; j <= hi; ++j) {
      double r = rhs_->robustness(trace, j, params);
      for (int i = k; i < j; ++i) {
        r = std::min(r, lhs_->robustness(trace, i, params));
      }
      best = std::max(best, r);
    }
    return best;
  }
  // Since: exists j in the past window with rhs at j and lhs on (j, k].
  const auto [lo, hi] = past_window(k, iv_);
  double best = -kBoolRobustness;
  for (int j = lo; j <= hi; ++j) {
    if (j < 0) continue;
    double r = rhs_->robustness(trace, j, params);
    for (int i = j + 1; i <= k; ++i) {
      r = std::min(r, lhs_->robustness(trace, i, params));
    }
    best = std::max(best, r);
  }
  return best;
}

std::string BinaryTemporal::to_string() const {
  const char* name = op_ == BinaryTemporalOp::kUntil ? "U" : "S";
  std::string out = "(";
  out += lhs_->to_string();
  out += ' ';
  out += name;
  append_bound(out, iv_);
  out += ' ';
  out += rhs_->to_string();
  out += ')';
  return out;
}

void BinaryTemporal::collect_params_impl(std::set<std::string>& out) const {
  lhs_->collect_params(out);
  rhs_->collect_params(out);
}

// ---- Builders -----------------------------------------------------------------

FormulaPtr pred(std::string var, CmpOp op, double threshold) {
  return std::make_shared<Predicate>(std::move(var), op,
                                     Threshold::literal(threshold));
}

FormulaPtr pred_param(std::string var, CmpOp op, std::string param_name) {
  return std::make_shared<Predicate>(std::move(var), op,
                                     Threshold::param(std::move(param_name)));
}

FormulaPtr bool_atom(std::string var) {
  return std::make_shared<Predicate>(std::move(var), CmpOp::kGe,
                                     Threshold::literal(0.5),
                                     /*is_boolean_atom=*/true);
}

FormulaPtr negate(FormulaPtr f) { return std::make_shared<Not>(std::move(f)); }

FormulaPtr conj(FormulaPtr a, FormulaPtr b) {
  return std::make_shared<BoolExpr>(BoolOp::kAnd, std::move(a), std::move(b));
}

FormulaPtr conj(std::vector<FormulaPtr> fs) {
  if (fs.empty()) return std::make_shared<Constant>(true);
  FormulaPtr acc = fs.front();
  for (std::size_t i = 1; i < fs.size(); ++i) acc = conj(acc, fs[i]);
  return acc;
}

FormulaPtr disj(FormulaPtr a, FormulaPtr b) {
  return std::make_shared<BoolExpr>(BoolOp::kOr, std::move(a), std::move(b));
}

FormulaPtr implies(FormulaPtr a, FormulaPtr b) {
  return std::make_shared<BoolExpr>(BoolOp::kImplies, std::move(a),
                                    std::move(b));
}

FormulaPtr globally(Interval iv, FormulaPtr f) {
  return std::make_shared<Temporal>(TemporalOp::kGlobally, iv, std::move(f));
}

FormulaPtr eventually(Interval iv, FormulaPtr f) {
  return std::make_shared<Temporal>(TemporalOp::kEventually, iv, std::move(f));
}

FormulaPtr historically(Interval iv, FormulaPtr f) {
  return std::make_shared<Temporal>(TemporalOp::kHistorically, iv,
                                    std::move(f));
}

FormulaPtr once(Interval iv, FormulaPtr f) {
  return std::make_shared<Temporal>(TemporalOp::kOnce, iv, std::move(f));
}

FormulaPtr until(Interval iv, FormulaPtr a, FormulaPtr b) {
  return std::make_shared<BinaryTemporal>(BinaryTemporalOp::kUntil, iv,
                                          std::move(a), std::move(b));
}

FormulaPtr since(Interval iv, FormulaPtr a, FormulaPtr b) {
  return std::make_shared<BinaryTemporal>(BinaryTemporalOp::kSince, iv,
                                          std::move(a), std::move(b));
}

double trace_robustness(const Formula& f, const Trace& trace,
                        const ParamMap& params) {
  double acc = kBoolRobustness;
  for (int k = 0; k < static_cast<int>(trace.length()); ++k) {
    acc = std::min(acc, f.robustness(trace, k, params));
  }
  return acc;
}

}  // namespace aps::stl
