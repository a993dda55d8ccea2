#include "fvc/cli/args.hpp"

#include <stdexcept>
#include <string_view>

namespace fvc::cli {

Args Args::parse(int argc, const char* const* argv) {
  Args args;
  for (int i = 0; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      if (!args.command_.empty()) {
        throw std::invalid_argument("unexpected positional argument: " + token);
      }
      args.command_ = token;
      continue;
    }
    std::string key;
    std::string value;
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      key = token.substr(2, eq - 2);
      value = token.substr(eq + 1);
    } else {
      key = token.substr(2);
      // A flag followed by another flag (or by nothing) is a bare
      // boolean switch: `top --once --json`.
      if (i + 1 >= argc ||
          std::string_view(argv[i + 1]).rfind("--", 0) == 0) {
        value.assign(1, '1');
      } else {
        value = argv[++i];
      }
    }
    if (key.empty()) {
      throw std::invalid_argument("empty flag name in: " + token);
    }
    if (!args.flags_.emplace(key, value).second) {
      throw std::invalid_argument("duplicate flag: --" + key);
    }
  }
  return args;
}

bool Args::has(const std::string& key) const { return flags_.count(key) > 0; }

std::string Args::get_string(const std::string& key, const std::string& fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) {
    return fallback;
  }
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(it->second, &consumed);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + key + " is not a number: " + it->second);
  }
  if (consumed != it->second.size()) {
    throw std::invalid_argument("flag --" + key + " has trailing junk: " + it->second);
  }
  return value;
}

std::size_t Args::get_size(const std::string& key, std::size_t fallback) const {
  const double v = get_double(key, static_cast<double>(fallback));
  // Range first: converting a NaN or a value outside [0, 2^64) to an
  // integer is undefined behaviour.
  if (!(v >= 0.0 && v < 0x1p64) ||
      v != static_cast<double>(static_cast<std::size_t>(v))) {
    throw std::invalid_argument("flag --" + key + " must be a non-negative integer");
  }
  return static_cast<std::size_t>(v);
}

bool Args::get_bool(const std::string& key, bool fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) {
    return fallback;
  }
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") {
    return true;
  }
  if (v == "0" || v == "false" || v == "no" || v == "off") {
    return false;
  }
  throw std::invalid_argument("flag --" + key + " is not a boolean: " + v);
}

long long Args::get_int(const std::string& key, long long fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) {
    return fallback;
  }
  std::size_t consumed = 0;
  long long value = 0;
  try {
    value = std::stoll(it->second, &consumed);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + key + " is not an integer: " + it->second);
  }
  if (consumed != it->second.size()) {
    throw std::invalid_argument("flag --" + key + " has trailing junk: " + it->second);
  }
  return value;
}

void Args::expect_only(const std::set<std::string>& allowed) const {
  for (const auto& [key, value] : flags_) {
    if (allowed.count(key) == 0) {
      throw std::invalid_argument("unknown flag for this command: --" + key);
    }
  }
}

}  // namespace fvc::cli
