// Minimal command-line flag parser for the bench binaries and examples.
//
// Supports --flag=value, --flag value, and bare boolean --flag forms.
// --benchmark_* flags are collected so google-benchmark's own flags pass
// through. Every lookup (has / get_*) marks its flag as read, so a program
// can name the flags it never looked at (unread()) instead of silently
// ignoring a typo. Lookups are const but not thread-safe.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace rdbs {

class CliArgs {
 public:
  CliArgs(int argc, char** argv);

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  // Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  // argv entries not consumed as --name[=value] flags, preserving argv[0];
  // suitable for handing to benchmark::Initialize.
  std::vector<std::string> passthrough() const { return passthrough_; }

  // Names (without the leading --) of the flags given on the command line
  // that no has() / get_*() call has looked up yet, in name order.
  std::vector<std::string> unread() const;

 private:
  const std::string* find(const std::string& name) const;

  std::map<std::string, std::string> flags_;
  mutable std::set<std::string> read_;
  std::vector<std::string> positional_;
  std::vector<std::string> passthrough_;
};

}  // namespace rdbs
