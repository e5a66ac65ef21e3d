#include "util/env.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace eco::util {

namespace {

/// One entry per queried name; the optional is empty when the variable was
/// unset at first query. Values live in the map for the process lifetime,
/// so env_value() can hand out stable pointers.
struct EnvCache {
  std::mutex mutex;
  std::unordered_map<std::string, std::optional<std::string>> values;
};

EnvCache& env_cache() {
  static EnvCache cache;
  return cache;
}

}  // namespace

const std::string* env_value(const char* name) {
  EnvCache& cache = env_cache();
  const std::lock_guard<std::mutex> lock(cache.mutex);
  auto it = cache.values.find(name);
  if (it == cache.values.end()) {
    const char* raw = std::getenv(name);
    std::optional<std::string> value;
    if (raw != nullptr) value = std::string(raw);
    it = cache.values.emplace(name, std::move(value)).first;
  }
  return it->second.has_value() ? &*it->second : nullptr;
}

bool env_enabled(const char* name) {
  const std::string* value = env_value(name);
  return value != nullptr && (*value == "1" || *value == "true" ||
                              *value == "on");
}

namespace {

[[noreturn]] void throw_unparsable(const char* name, const std::string& value,
                                   const char* expected) {
  throw std::invalid_argument(std::string(name) + "='" + value +
                              "' is not " + expected);
}

}  // namespace

std::size_t env_size_or(const char* name, std::size_t fallback) {
  const std::string* value = env_value(name);
  if (value == nullptr) return fallback;
  const char* begin = value->c_str();
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(begin, &end, 10);
  // strtoull skips leading blanks and accepts a sign; demand bare digits.
  if (!std::isdigit(static_cast<unsigned char>(*begin)) || *end != '\0' ||
      errno == ERANGE) {
    throw_unparsable(name, *value, "an unsigned integer");
  }
  return parsed == 0 ? fallback : static_cast<std::size_t>(parsed);
}

double env_double_or(const char* name, double fallback) {
  const std::string* value = env_value(name);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value->c_str(), &end);
  if (end == value->c_str() || *end != '\0') {
    throw_unparsable(name, *value, "a number");
  }
  return parsed > 0.0 ? parsed : fallback;
}

std::string env_string_or(const char* name, const std::string& fallback) {
  const std::string* value = env_value(name);
  return value != nullptr ? *value : fallback;
}

}  // namespace eco::util
