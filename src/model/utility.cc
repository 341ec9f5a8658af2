#include "model/utility.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <sstream>

namespace lla {
namespace {

// "" when `x` is finite and at least `min` (above it when `strict`), else
// "<name> <x> is not a finite number >= min" (or "> min").
std::string RangeProblem(const char* name, double x, double min,
                         bool strict = false) {
  if (std::isfinite(x) && (strict ? x > min : x >= min)) return {};
  std::ostringstream os;
  os << name << ' ' << x << " is not a finite number " << (strict ? ">" : ">=")
     << ' ' << min;
  return os.str();
}

std::string FiniteProblem(const char* name, double x) {
  if (std::isfinite(x)) return {};
  std::ostringstream os;
  os << name << ' ' << x << " is not finite";
  return os.str();
}

// The first non-empty problem of a parameter list, or "".
std::string FirstProblem(std::initializer_list<std::string> problems) {
  for (const std::string& problem : problems) {
    if (!problem.empty()) return problem;
  }
  return {};
}

// The constructors' check: aborts with `owner: problem` unless `problem` is
// empty, in every build mode.
void RequireValid(const char* owner, const std::string& problem) {
  if (problem.empty()) return;
  std::fprintf(stderr, "%s: %s\n", owner, problem.c_str());
  std::abort();
}

}  // namespace

LinearUtility::LinearUtility(double offset, double slope)
    : offset_(offset), slope_(slope) {
  RequireValid("LinearUtility", ParamProblem(offset, slope));
}

std::string LinearUtility::ParamProblem(double offset, double slope) {
  return FirstProblem(
      {FiniteProblem("offset", offset), RangeProblem("slope", slope, 0.0)});
}

double LinearUtility::Value(double x) const { return offset_ - slope_ * x; }

double LinearUtility::Derivative(double /*x*/) const { return -slope_; }

std::string LinearUtility::Describe() const {
  std::ostringstream os;
  os << "linear(" << offset_ << " - " << slope_ << "*x)";
  return os.str();
}

PowerUtility::PowerUtility(double offset, double coeff, double exponent)
    : offset_(offset), coeff_(coeff), exponent_(exponent) {
  RequireValid("PowerUtility", ParamProblem(offset, coeff, exponent));
}

std::string PowerUtility::ParamProblem(double offset, double coeff,
                                       double exponent) {
  return FirstProblem({FiniteProblem("offset", offset),
                       RangeProblem("coeff", coeff, 0.0),
                       RangeProblem("exponent", exponent, 1.0)});
}

double PowerUtility::Value(double x) const {
  return offset_ - coeff_ * std::pow(x, exponent_);
}

double PowerUtility::Derivative(double x) const {
  return -coeff_ * exponent_ * std::pow(x, exponent_ - 1.0);
}

std::string PowerUtility::Describe() const {
  std::ostringstream os;
  os << "power(" << offset_ << " - " << coeff_ << "*x^" << exponent_ << ")";
  return os.str();
}

NegExpUtility::NegExpUtility(double offset, double rate)
    : offset_(offset), rate_(rate) {
  RequireValid("NegExpUtility", ParamProblem(offset, rate));
}

std::string NegExpUtility::ParamProblem(double offset, double rate) {
  return FirstProblem({FiniteProblem("offset", offset),
                       RangeProblem("rate", rate, 0.0, /*strict=*/true)});
}

double NegExpUtility::Value(double x) const {
  return offset_ - std::exp(rate_ * x) / rate_;
}

double NegExpUtility::Derivative(double x) const {
  return -std::exp(rate_ * x);
}

std::string NegExpUtility::Describe() const {
  std::ostringstream os;
  os << "negexp(" << offset_ << " - exp(" << rate_ << "*x)/" << rate_ << ")";
  return os.str();
}

InelasticUtility::InelasticUtility(double plateau, double flat_until,
                                   double steepness)
    : plateau_(plateau), flat_until_(flat_until), steepness_(steepness) {
  RequireValid("InelasticUtility",
               ParamProblem(plateau, flat_until, steepness));
}

std::string InelasticUtility::ParamProblem(double plateau, double flat_until,
                                           double steepness) {
  return FirstProblem(
      {FiniteProblem("plateau", plateau),
       RangeProblem("flat_until", flat_until, 0.0),
       RangeProblem("steepness", steepness, 0.0, /*strict=*/true)});
}

double InelasticUtility::Value(double x) const {
  if (x <= flat_until_) return plateau_;
  const double d = x - flat_until_;
  return plateau_ - 0.5 * steepness_ * d * d;
}

double InelasticUtility::Derivative(double x) const {
  if (x <= flat_until_) return 0.0;
  return -steepness_ * (x - flat_until_);
}

std::string InelasticUtility::Describe() const {
  std::ostringstream os;
  os << "inelastic(plateau=" << plateau_ << ", flat_until=" << flat_until_
     << ", steepness=" << steepness_ << ")";
  return os.str();
}

UtilityPtr MakePaperSimUtility(double critical_time_ms, double k) {
  assert(k >= 1.0);
  return std::make_shared<LinearUtility>(k * critical_time_ms, 1.0);
}

UtilityPtr MakePrototypeUtility() {
  return std::make_shared<LinearUtility>(0.0, 1.0);
}

bool CheckConcaveNonIncreasing(const UtilityFunction& u, double lo, double hi,
                               int samples) {
  assert(samples >= 3);
  assert(lo < hi);
  const double step = (hi - lo) / (samples - 1);
  double prev_value = u.Value(lo);
  double prev_deriv = u.Derivative(lo);
  constexpr double kSlack = 1e-9;
  for (int i = 1; i < samples; ++i) {
    const double x = lo + i * step;
    const double value = u.Value(x);
    const double deriv = u.Derivative(x);
    if (deriv > kSlack) return false;                     // increasing
    if (value > prev_value + kSlack) return false;        // increasing
    if (deriv > prev_deriv + kSlack * (1 + std::fabs(prev_deriv))) {
      return false;  // derivative increased: convex region
    }
    prev_value = value;
    prev_deriv = deriv;
  }
  return true;
}

}  // namespace lla
