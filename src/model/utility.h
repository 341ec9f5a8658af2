// Utility (time-utility) functions, paper Sec. 2.1 and 3.2.
//
// A task's benefit is a non-increasing function of its (weighted) latency.
// LLA requires utilities to be concave and continuously differentiable below
// the critical time.  The paper's experiments use linear utilities
// (f(x) = k*C - x for simulations, f(x) = -x for the prototype); we also
// provide power-law, negative-exponential and smoothed-inelastic shapes to
// cover the "elastic vs inelastic" spectrum of Figure 2.
#pragma once

#include <memory>
#include <string>

namespace lla {

/// Concave, non-increasing, continuously differentiable mapping from
/// (weighted) latency in milliseconds to a benefit value.
class UtilityFunction {
 public:
  virtual ~UtilityFunction() = default;

  /// Benefit at the given latency (>= 0).
  virtual double Value(double latency_ms) const = 0;

  /// d(benefit)/d(latency); must be <= 0 everywhere (non-increasing) and
  /// non-increasing itself (concavity).
  virtual double Derivative(double latency_ms) const = 0;

  /// Human-readable description, e.g. "linear(90 - x)".
  virtual std::string Describe() const = 0;
};

using UtilityPtr = std::shared_ptr<const UtilityFunction>;

// Each concrete utility states its parameter range once, in a static
// ParamProblem: every parameter finite, plus the shape's own bounds.  The
// constructor aborts with that message in every build mode, and the `.lla`
// reader calls ParamProblem first so a bad file fails with its line number.

/// f(x) = offset - slope * x, slope >= 0.  The paper's workhorse.
class LinearUtility final : public UtilityFunction {
 public:
  LinearUtility(double offset, double slope);
  /// Why (offset, slope) make no LinearUtility, or "" when they do.
  static std::string ParamProblem(double offset, double slope);
  double Value(double x) const override;
  double Derivative(double x) const override;
  std::string Describe() const override;
  double offset() const { return offset_; }
  double slope() const { return slope_; }

 private:
  double offset_;
  double slope_;
};

/// f(x) = offset - coeff * x^exponent, coeff >= 0, exponent >= 1.
/// exponent = 1 reduces to linear; exponent = 2 is quadratic.
class PowerUtility final : public UtilityFunction {
 public:
  PowerUtility(double offset, double coeff, double exponent);
  /// Why the parameters make no PowerUtility, or "" when they do.
  static std::string ParamProblem(double offset, double coeff,
                                  double exponent);
  double Value(double x) const override;
  double Derivative(double x) const override;
  std::string Describe() const override;
  double offset() const { return offset_; }
  double coeff() const { return coeff_; }
  double exponent() const { return exponent_; }

 private:
  double offset_;
  double coeff_;
  double exponent_;
};

/// f(x) = offset - exp(rate * x) / rate, rate > 0.  Sharply elastic: the
/// penalty accelerates with latency (concave since f'' = -rate*exp(rate*x)).
class NegExpUtility final : public UtilityFunction {
 public:
  NegExpUtility(double offset, double rate);
  /// Why (offset, rate) make no NegExpUtility, or "" when they do.
  static std::string ParamProblem(double offset, double rate);
  double Value(double x) const override;
  double Derivative(double x) const override;
  std::string Describe() const override;
  double offset() const { return offset_; }
  double rate() const { return rate_; }

 private:
  double offset_;
  double rate_;
};

/// Smoothed inelastic task (Figure 2, right): full benefit while latency is
/// below `flat_until`, then a quadratic penalty.  C1-continuous and concave:
/// f(x) = plateau                                   for x <= flat_until
///      = plateau - 0.5*steepness*(x - flat_until)^2 otherwise.
class InelasticUtility final : public UtilityFunction {
 public:
  InelasticUtility(double plateau, double flat_until, double steepness);
  /// Why the parameters make no InelasticUtility, or "" when they do.
  static std::string ParamProblem(double plateau, double flat_until,
                                  double steepness);
  double Value(double x) const override;
  double Derivative(double x) const override;
  std::string Describe() const override;
  double plateau() const { return plateau_; }
  double flat_until() const { return flat_until_; }
  double steepness() const { return steepness_; }

 private:
  double plateau_;
  double flat_until_;
  double steepness_;
};

/// The simulation-experiment utility of Sec. 5.2: f(x) = k*C - x.
UtilityPtr MakePaperSimUtility(double critical_time_ms, double k = 2.0);

/// The prototype-experiment utility of Sec. 6.2: f(x) = -x.
UtilityPtr MakePrototypeUtility();

/// Numerically verifies concavity and monotonicity of `u` by sampling
/// [lo, hi]; returns false with no diagnostics (tests use it as a property
/// check for user-supplied utilities).
bool CheckConcaveNonIncreasing(const UtilityFunction& u, double lo, double hi,
                               int samples = 257);

}  // namespace lla
