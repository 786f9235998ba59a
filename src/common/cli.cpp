#include "common/cli.hpp"

#include <cstdlib>
#include <string_view>

namespace rdbs {

namespace {

bool looks_boolean(std::string_view next) {
  // A flag with no value, or followed by another flag, is treated as boolean.
  return next.empty() || next.starts_with("--");
}

}  // namespace

CliArgs::CliArgs(int argc, char** argv) {
  if (argc > 0) passthrough_.emplace_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!arg.starts_with("--")) {
      positional_.emplace_back(arg);
      continue;
    }
    // google-benchmark flags start with --benchmark_; pass them through.
    if (arg.starts_with("--benchmark_")) {
      passthrough_.emplace_back(arg);
      continue;
    }
    std::string_view body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string_view::npos) {
      flags_[std::string(body.substr(0, eq))] = std::string(body.substr(eq + 1));
      continue;
    }
    std::string_view next = (i + 1 < argc) ? std::string_view(argv[i + 1])
                                           : std::string_view();
    if (looks_boolean(next)) {
      flags_[std::string(body)] = "true";
    } else {
      flags_[std::string(body)] = std::string(next);
      ++i;
    }
  }
}

const std::string* CliArgs::find(const std::string& name) const {
  read_.insert(name);
  const auto it = flags_.find(name);
  return it == flags_.end() ? nullptr : &it->second;
}

bool CliArgs::has(const std::string& name) const {
  return find(name) != nullptr;
}

std::string CliArgs::get_string(const std::string& name,
                                const std::string& fallback) const {
  const std::string* value = find(name);
  return value == nullptr ? fallback : *value;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const std::string* value = find(name);
  return value == nullptr ? fallback
                          : std::strtoll(value->c_str(), nullptr, 10);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const std::string* value = find(name);
  return value == nullptr ? fallback : std::strtod(value->c_str(), nullptr);
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  return *value == "true" || *value == "1" || *value == "yes";
}

std::vector<std::string> CliArgs::unread() const {
  std::vector<std::string> names;
  for (const auto& [name, value] : flags_) {
    if (!read_.contains(name)) names.push_back(name);
  }
  return names;
}

}  // namespace rdbs
