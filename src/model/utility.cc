#include "model/utility.h"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace lla {
namespace {

// One factory argument: its name and the least value it may take (strictly
// more when `strict`); kAnyFinite admits every finite number.
constexpr double kAnyFinite = -std::numeric_limits<double>::infinity();
struct Param {
  const char* name = nullptr;
  double min = kAnyFinite;
  bool strict = false;
};

// Indexed by Utility::Shape: the .lla keyword and the factory's parameters.
struct ShapeSpec {
  const char* name;
  Param params[3];
};
constexpr ShapeSpec kShapes[] = {
    {"linear", {{"offset"}, {"slope", 0.0}}},
    {"power", {{"offset"}, {"coeff", 0.0}, {"exponent", 1.0}}},
    {"negexp", {{"offset"}, {"rate", 0.0, /*strict=*/true}}},
    {"inelastic", {{"plateau"}, {"flat_until", 0.0}, {"steepness", 0.0, true}}},
};

}  // namespace

Utility::Utility(Shape shape, double a, double b, double c)
    : shape_(shape), a_(a), b_(b), c_(c) {
  const std::string problem = ParamProblem(shape, a, b, c);
  if (problem.empty()) return;
  std::fprintf(stderr, "utility %s: %s\n", Name(shape), problem.c_str());
  std::abort();
}

std::string Utility::ParamProblem(Shape shape, double a, double b, double c) {
  const double values[] = {a, b, c};
  const Param* params = kShapes[static_cast<int>(shape)].params;
  for (int i = 0; i < 3 && params[i].name != nullptr; ++i) {
    const Param& p = params[i];
    const double x = values[i];
    if (std::isfinite(x) && (p.strict ? x > p.min : x >= p.min)) continue;
    std::ostringstream os;
    os << p.name << ' ' << x << " is not ";
    if (p.min == kAnyFinite) {
      os << "finite";
    } else {
      os << "a finite number " << (p.strict ? "> " : ">= ") << p.min;
    }
    return os.str();
  }
  return {};
}

const char* Utility::Name(Shape shape) {
  return kShapes[static_cast<int>(shape)].name;
}

std::string Utility::Describe() const {
  std::ostringstream os;
  os << Name(shape_) << '(';
  switch (shape_) {
    case Shape::kLinear:
      os << a_ << " - " << b_ << "*x)";
      break;
    case Shape::kPower:
      os << a_ << " - " << b_ << "*x^" << c_ << ')';
      break;
    case Shape::kNegExp:
      os << a_ << " - exp(" << b_ << "*x)/" << b_ << ')';
      break;
    case Shape::kInelastic:
      os << "plateau=" << a_ << ", flat_until=" << b_
         << ", steepness=" << c_ << ')';
      break;
  }
  return os.str();
}

}  // namespace lla
