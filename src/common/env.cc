#include "src/common/env.h"

#include <cstdlib>

namespace nyx {
namespace env {

namespace {

const char* Raw(const char* name) {
  // The only getenv call site in the tree (nyx_lint `raw-env`).
  return std::getenv(name);
}

}  // namespace

bool Flag(const char* name) {
  const char* v = Raw(name);
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

bool FlagOr(const char* name, bool def) {
  const char* v = Raw(name);
  if (v == nullptr || v[0] == '\0') {
    return def;
  }
  return v[0] != '0';
}

size_t SizeOr(const char* name, size_t def) {
  const char* v = Raw(name);
  if (v == nullptr || v[0] == '\0') {
    return def;
  }
  const long n = atol(v);
  return n > 0 ? static_cast<size_t>(n) : def;
}

double DoubleOr(const char* name, double def) {
  const char* v = Raw(name);
  if (v == nullptr || v[0] == '\0') {
    return def;
  }
  const double x = atof(v);
  return x > 0 ? x : def;
}

std::string StringOr(const char* name, const std::string& def) {
  const char* v = Raw(name);
  return (v == nullptr || v[0] == '\0') ? def : std::string(v);
}

size_t Runs(size_t def) { return SizeOr("NYX_RUNS", def); }
double Vtime(double def) { return DoubleOr("NYX_VTIME", def); }
size_t Jobs(size_t def) { return SizeOr("NYX_JOBS", def); }
double Wall(double def) { return DoubleOr("NYX_WALL", def); }
bool LockDebug(bool def) { return FlagOr("NYX_LOCK_DEBUG", def); }
bool Audit() { return Flag("NYX_AUDIT"); }

}  // namespace env
}  // namespace nyx
