// Tiny command-line flag parser shared by the examples and benches.
//
// Supports "--name value" and "--name=value" forms plus boolean switches.
// Every has()/get_*() call marks its flag as read, so once a command has
// read all the flags it knows, unread() names the ones it does not.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace scalparc::util {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& default_value) const;
  std::int64_t get_int(const std::string& name,
                       std::int64_t default_value) const;
  double get_double(const std::string& name, double default_value) const;
  bool get_bool(const std::string& name, bool default_value) const;

  // Comma-separated integer list, e.g. "--procs 2,4,8".
  std::vector<std::int64_t> get_int_list(
      const std::string& name,
      const std::vector<std::int64_t>& default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

  // Flags given on the command line that no has()/get_*() call has read,
  // in name order.
  std::vector<std::string> unread() const;

 private:
  // Looks `name` up and marks it read.
  const std::string* find(const std::string& name) const;

  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;
};

}  // namespace scalparc::util
