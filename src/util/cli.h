// Minimal command-line flag parsing for bench and example binaries.
//
// Flags are "--name value" or "--name=value"; boolean flags may omit the
// value. Every binary in bench/ and examples/ must run with sensible
// defaults and no arguments (the CI loop executes them bare), so parsing
// never aborts on missing flags — only on malformed ones.
#ifndef PIVOTSCALE_UTIL_CLI_H_
#define PIVOTSCALE_UTIL_CLI_H_

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace pivotscale {

// Largest value a thread-count flag accepts. Anything above this is a
// typo (or a unit confusion), not a machine this code targets.
inline constexpr int kMaxThreadsFlag = 4096;

class ArgParser {
 public:
  // Parses argv. Unrecognized positional arguments are collected in
  // positional(). Malformed flags (e.g. "--" alone) raise std::runtime_error.
  ArgParser(int argc, char** argv);

  // True if --name was present at all.
  bool Has(const std::string& name) const;

  // Typed lookups with defaults. GetInt/GetDouble raise std::runtime_error
  // on unparseable values so typos fail loudly.
  std::string GetString(const std::string& name,
                        const std::string& def) const;
  std::int64_t GetInt(const std::string& name, std::int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  bool GetBool(const std::string& name, bool def) const;

  // Range-checked integer flag: absent -> `def` (not range-checked); an
  // explicit value must lie in [lo, hi] or std::runtime_error names the
  // flag, the value and the range. Every integer flag that is cast to a
  // narrower or unsigned type goes through here, so "--port 65616" or
  // "--queue-depth -1" fails instead of wrapping through the cast.
  std::int64_t GetIntInRange(
      const std::string& name, std::int64_t def, std::int64_t lo,
      std::int64_t hi = std::numeric_limits<std::int64_t>::max()) const;

  // Uniform thread-count flag validation for every binary: absent ->
  // `def` (0 means "whole machine" to downstream consumers); an explicit
  // value must lie in [1, kMaxThreadsFlag]. Zero, negative, and absurd
  // values raise std::runtime_error — a worker count of 0 silently
  // becoming "serial" or "-3" wrapping through a cast are both config
  // mistakes the binary should refuse, not absorb.
  int GetThreads(const std::string& name = "threads", int def = 0) const;

  // Clique-size flag --k: absent -> `def`; an explicit value must lie in
  // [1, 2^32 - 1] ("--k -5" is not 4294967291).
  std::uint32_t GetK(std::uint32_t def) const;

  // Path-valued flag: absent -> `def`. When present it must name a path:
  // an empty value ("--out=") or none at all ("--out" before another flag)
  // raises std::runtime_error, instead of silently disabling the output
  // or input the flag names.
  std::string GetPath(const std::string& name, const std::string& def) const;

  // Comma-separated list of integers, e.g. "--ks 4,6,8".
  std::vector<std::int64_t> GetIntList(
      const std::string& name, const std::vector<std::int64_t>& def) const;

  // Raises std::runtime_error naming every parsed flag that is not in
  // `known` (and listing the accepted set), so a misspelled flag like
  // "--orderng" fails loudly instead of silently falling back to defaults.
  // Call after construction with the binary's full flag vocabulary.
  void RejectUnknown(const std::vector<std::string>& known) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program_name() const { return program_name_; }

 private:
  std::string program_name_;
  std::map<std::string, std::string> flags_;
  std::set<std::string> valueless_;  // boolean-style flags given no value
  std::vector<std::string> positional_;
};

}  // namespace pivotscale

#endif  // PIVOTSCALE_UTIL_CLI_H_
