// Utility (time-utility) functions, paper Sec. 2.1 and 3.2.
//
// A task's benefit is a non-increasing function of its (weighted) latency.
// LLA requires utilities to be concave and continuously differentiable below
// the critical time.  The paper's experiments use linear utilities
// (f(x) = k*C - x for simulations, f(x) = -x for the prototype); we also
// provide power-law, negative-exponential and smoothed-inelastic shapes to
// cover the "elastic vs inelastic" spectrum of Figure 2.
//
// Those four shapes are the whole family, so a utility is one value: a shape
// tag and up to three parameters.  Value, Derivative and Describe switch on
// the tag.
#pragma once

#include <cassert>
#include <cmath>
#include <string>

namespace lla {

/// Concave, non-increasing, continuously differentiable mapping from
/// (weighted) latency in milliseconds to a benefit value.
class Utility {
 public:
  enum class Shape { kLinear, kPower, kNegExp, kInelastic };

  /// f(x) = offset - slope * x, slope >= 0.  The paper's workhorse.
  static Utility Linear(double offset, double slope) {
    return Utility(Shape::kLinear, offset, slope);
  }

  /// f(x) = offset - coeff * x^exponent, coeff >= 0, exponent >= 1.
  /// exponent = 1 reduces to linear; exponent = 2 is quadratic.
  static Utility Power(double offset, double coeff, double exponent) {
    return Utility(Shape::kPower, offset, coeff, exponent);
  }

  /// f(x) = offset - exp(rate * x) / rate, rate > 0.  Sharply elastic: the
  /// penalty accelerates with latency (concave since f'' = -rate*exp(rate*x)).
  static Utility NegExp(double offset, double rate) {
    return Utility(Shape::kNegExp, offset, rate);
  }

  /// Smoothed inelastic task (Figure 2, right): full benefit while latency
  /// is below `flat_until`, then a quadratic penalty.  C1-continuous and
  /// concave:
  /// f(x) = plateau                                   for x <= flat_until
  ///      = plateau - 0.5*steepness*(x - flat_until)^2 otherwise.
  static Utility Inelastic(double plateau, double flat_until,
                           double steepness) {
    return Utility(Shape::kInelastic, plateau, flat_until, steepness);
  }

  /// The factory of `shape`, with its arguments in order (c = 0 for the
  /// two-parameter shapes); aborts in every build mode on a ParamProblem.
  Utility(Shape shape, double a, double b, double c = 0.0);

  /// Why (a, b, c) make no utility of `shape`, or "" when they do: every
  /// parameter finite, plus the shape's own bounds.  The `.lla` reader asks
  /// this first, so a bad file fails with its line number instead.
  static std::string ParamProblem(Shape shape, double a, double b, double c);

  /// The shape's `.lla` keyword: "linear", "power", "negexp", "inelastic".
  static const char* Name(Shape shape);

  /// Benefit at the given latency (>= 0).
  double Value(double x) const {
    switch (shape_) {
      case Shape::kLinear:
        return a_ - b_ * x;
      case Shape::kPower:
        return a_ - b_ * std::pow(x, c_);
      case Shape::kNegExp:
        return a_ - std::exp(b_ * x) / b_;
      case Shape::kInelastic:
        if (x <= b_) return a_;
        return a_ - 0.5 * c_ * (x - b_) * (x - b_);
    }
    return 0.0;
  }

  /// d(benefit)/d(latency); <= 0 everywhere (non-increasing) and
  /// non-increasing itself (concavity).
  double Derivative(double x) const {
    switch (shape_) {
      case Shape::kLinear:
        return -b_;
      case Shape::kPower:
        return -b_ * c_ * std::pow(x, c_ - 1.0);
      case Shape::kNegExp:
        return -std::exp(b_ * x);
      case Shape::kInelastic:
        if (x <= b_) return 0.0;
        return -c_ * (x - b_);
    }
    return 0.0;
  }

  /// Human-readable description, e.g. "linear(90 - 1*x)".
  std::string Describe() const;

  Shape shape() const { return shape_; }
  /// The factory's arguments in order (c is 0 for two-parameter shapes).
  double a() const { return a_; }
  double b() const { return b_; }
  double c() const { return c_; }

 private:
  Shape shape_;
  double a_, b_, c_;
};

/// The simulation-experiment utility of Sec. 5.2: f(x) = k*C - x.
inline Utility MakePaperSimUtility(double critical_time_ms, double k = 2.0) {
  assert(k >= 1.0);
  return Utility::Linear(k * critical_time_ms, 1.0);
}

/// The prototype-experiment utility of Sec. 6.2: f(x) = -x.
inline Utility MakePrototypeUtility() { return Utility::Linear(0.0, 1.0); }

}  // namespace lla
