#include "util/cli.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace pivotscale {

ArgParser::ArgParser(int argc, char** argv) {
  program_name_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    if (arg.size() == 2) throw std::runtime_error("bare '--' argument");
    std::string name = arg.substr(2);
    std::string value;
    bool valueless = false;
    const std::size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    } else {
      value = "true";  // boolean flag with no value
      valueless = true;
    }
    flags_[name] = value;
    if (valueless)
      valueless_.insert(name);
    else
      valueless_.erase(name);  // a repeated flag: the last one wins
  }
}

bool ArgParser::Has(const std::string& name) const {
  return flags_.count(name) != 0;
}

std::string ArgParser::GetString(const std::string& name,
                                 const std::string& def) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

std::int64_t ArgParser::GetInt(const std::string& name,
                               std::int64_t def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  // stoll itself throws invalid_argument/out_of_range on junk; fold every
  // failure mode into the one flag-naming message.
  try {
    std::size_t pos = 0;
    const std::int64_t v = std::stoll(it->second, &pos);
    if (pos == it->second.size()) return v;
  } catch (const std::exception&) {
  }
  throw std::runtime_error("bad integer for --" + name + ": " + it->second);
}

double ArgParser::GetDouble(const std::string& name, double def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  try {
    std::size_t pos = 0;
    const double v = std::stod(it->second, &pos);
    if (pos == it->second.size()) return v;
  } catch (const std::exception&) {
  }
  throw std::runtime_error("bad double for --" + name + ": " + it->second);
}

bool ArgParser::GetBool(const std::string& name, bool def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::runtime_error("bad boolean for --" + name + ": " + v);
}

std::int64_t ArgParser::GetIntInRange(const std::string& name,
                                      std::int64_t def, std::int64_t lo,
                                      std::int64_t hi) const {
  if (!Has(name)) return def;
  const std::int64_t v = GetInt(name, def);
  if (v >= lo && v <= hi) return v;
  const std::string range =
      hi == std::numeric_limits<std::int64_t>::max()
          ? "at least " + std::to_string(lo)
          : "between " + std::to_string(lo) + " and " + std::to_string(hi);
  throw std::runtime_error("bad --" + name + ": " + std::to_string(v) +
                           " (must be " + range + ")");
}

int ArgParser::GetThreads(const std::string& name, int def) const {
  return static_cast<int>(GetIntInRange(name, def, 1, kMaxThreadsFlag));
}

std::uint32_t ArgParser::GetK(std::uint32_t def) const {
  return static_cast<std::uint32_t>(GetIntInRange("k", def, 1, 0xffffffffLL));
}

std::string ArgParser::GetPath(const std::string& name,
                               const std::string& def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  if (it->second.empty() || valueless_.count(name) != 0)
    throw std::runtime_error("bad --" + name + ": expected a path");
  return it->second;
}

std::vector<std::int64_t> ArgParser::GetIntList(
    const std::string& name, const std::vector<std::int64_t>& def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  std::vector<std::int64_t> out;
  const std::string& s = it->second;
  std::size_t begin = 0;
  while (begin <= s.size()) {
    std::size_t end = s.find(',', begin);
    if (end == std::string::npos) end = s.size();
    const std::string token = s.substr(begin, end - begin);
    if (!token.empty()) {
      try {
        std::size_t pos = 0;
        const std::int64_t v = std::stoll(token, &pos);
        if (pos == token.size()) {
          out.push_back(v);
          begin = end + 1;
          continue;
        }
      } catch (const std::exception&) {
      }
      throw std::runtime_error("bad list entry for --" + name + ": " +
                               token);
    }
    begin = end + 1;
  }
  return out;
}

void ArgParser::RejectUnknown(const std::vector<std::string>& known) const {
  std::string unknown;
  for (const auto& [name, value] : flags_) {
    if (std::find(known.begin(), known.end(), name) != known.end()) continue;
    if (!unknown.empty()) unknown += ", ";
    unknown += "--" + name;
  }
  if (unknown.empty()) return;
  std::string accepted;
  for (const std::string& name : known) {
    if (!accepted.empty()) accepted += ", ";
    accepted += "--" + name;
  }
  throw std::runtime_error("unknown flag(s) " + unknown + "; accepted: " +
                           accepted);
}

}  // namespace pivotscale
