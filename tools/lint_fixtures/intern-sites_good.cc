// Fixture: lookups, and mentions of .intern( in comments and strings,
// stay quiet.
#include <string>

#include "spambayes/interner.h"

using namespace sbx::spambayes;

// Calling global_interner().intern(t) here would grow the interner.
bool good(const std::string& token) {
  const auto id = global_interner().find(token);
  const char* note = "intern_tokens(x) is test-only";
  return id.has_value() && note != nullptr;
}
