// Command-line flags for the tools/, bench/ and examples/ front ends.
//
// A front end declares each of its flags once in a FlagTable: its spelling,
// where its value goes, its --help line and the modes that read it. Values
// must parse whole and fit their type: the historical atoi/atof parsing
// turned "--jobs=abc" into 0 (the hardware default), wrapped "--survey=-5"
// to a huge size_t and dropped the suffix of "--max-crowd=20x". A refused
// argument, or a flag the selected mode would ignore, makes the front end
// exit with a usage error instead of running a survey nobody asked for.
#ifndef MFC_SRC_CORE_ARG_PARSE_H_
#define MFC_SRC_CORE_ARG_PARSE_H_

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace mfc {

// Unsigned decimal, full-string, no leading sign (rejects "-1" outright
// rather than wrapping). Empty strings and trailing garbage fail.
inline bool ParseU64Value(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long v = strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') {
    return false;
  }
  *out = static_cast<uint64_t>(v);
  return true;
}

inline bool ParseSizeValue(const std::string& text, size_t* out) {
  uint64_t v = 0;
  if (!ParseU64Value(text, &v) || v > static_cast<uint64_t>(SIZE_MAX)) {
    return false;
  }
  *out = static_cast<size_t>(v);
  return true;
}

// Finite double, full-string (accepts the usual strtod forms incl. negative
// values; callers wanting non-negative check the result). strtod also reads
// "nan" and "inf" without setting errno; both are rejected here, since a NaN
// slips past every range check a caller makes.
inline bool ParseDoubleValue(const std::string& text, double* out) {
  if (text.empty()) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  double v = strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0' || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

class FlagTable {
 public:
  // One bit per mode of the front end.
  using Modes = uint32_t;
  static constexpr Modes kEveryMode = ~Modes{0};

  // |mode_names| names the mode bits from the lowest, for Unread and
  // PrintUsage. A front end with one mode passes none.
  explicit FlagTable(std::vector<const char*> mode_names = {})
      : mode_names_(std::move(mode_names)) {}

  // Declares a flag read in |modes|. |spelling| is "--name=<value>" for a
  // value flag, "--name" for a switch (|out| is a bool, set when given) or
  // "<name>" for a positional argument; positionals fill in declaration
  // order. Numbers must parse whole (ParseU64Value, ParseDoubleValue) and
  // fit |*out|; strings are taken as typed.
  template <typename T>
  void Add(const char* spelling, T* out, const char* help, Modes modes = kEveryMode) {
    std::string name = NameOf(spelling);
    Add(spelling, [name, out](const std::string& text) { return Store(name, text, out); }, help,
        modes);
  }
  // A value flag with its own parser, which prints why it refuses a value.
  void Add(const char* spelling, std::function<bool(const std::string&)> parse, const char* help,
           Modes modes = kEveryMode) {
    flags_.push_back({NameOf(spelling), spelling, help, modes, std::move(parse)});
  }

  // Reads argv[1..] through the table. Returns false for --help or -h, and
  // for the first refused argument after printing one line on stderr.
  bool Parse(int argc, char** argv) {
    size_t positionals = 0;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        return false;
      }
      const bool positional = arg.empty() || arg[0] != '-';
      const size_t eq = arg.find('=');
      const size_t f = positional ? NthPositional(positionals) : Find(arg.substr(0, eq));
      if (f == flags_.size()) {
        fprintf(stderr, positional ? "unexpected argument '%s'\n" : "unknown flag '%s'\n",
                arg.c_str());
        return false;
      }
      const Flag& flag = flags_[f];
      if (!positional && (flag.name != flag.spelling) != (eq != std::string::npos)) {
        fprintf(stderr, "%s: expected %s\n", arg.c_str(), flag.spelling);
        return false;
      }
      if (!flag.parse(positional || eq == std::string::npos ? arg : arg.substr(eq + 1))) {
        return false;
      }
      positionals += positional ? 1 : 0;
      given_.emplace_back(f, arg);
    }
    return true;
  }

  // True when the flag named |name| ("--jobs", "<servers>") was given.
  bool Given(const std::string& name) const {
    size_t f = Find(name);
    return std::any_of(given_.begin(), given_.end(), [f](const auto& g) { return g.first == f; });
  }

  // Prints "<flag> has no effect with <mode>" for each given flag that the
  // one mode bit |mode| does not read; true when there was any.
  bool Unread(Modes mode) const {
    bool any = false;
    for (const Flag& flag : flags_) {
      if ((flag.modes & mode) == 0 && Given(flag.name)) {
        fprintf(stderr, "%s has no effect with %s\n", flag.name.c_str(),
                mode_names_[std::countr_zero(mode)]);
        any = true;
      }
    }
    return any;
  }

  // The arguments given for the flags named in |names|, exactly as typed
  // and in argv order.
  std::vector<std::string> Spelled(const std::vector<std::string>& names) const {
    std::vector<std::string> args;
    for (const auto& [f, arg] : given_) {
      if (std::find(names.begin(), names.end(), flags_[f].name) != names.end()) {
        args.push_back(arg);
      }
    }
    return args;
  }

  // The --help text: a usage line, one line per flag and, when the table
  // has modes, the flags each mode reads.
  void PrintUsage(FILE* out, const char* program) const {
    fprintf(out, "usage: %s", program);
    for (const Flag& flag : flags_) {
      if (flag.name[0] == '<') {
        fprintf(out, " [%s]", flag.spelling);
      }
    }
    fprintf(out, " [flags]\n");
    for (const Flag& flag : flags_) {
      fprintf(out, "  %-22s %s\n", flag.spelling, flag.help);
    }
    if (!mode_names_.empty()) {
      fprintf(out, "each mode reads only these flags; any other exits 2:\n");
    }
    for (size_t m = 0; m < mode_names_.size(); ++m) {
      std::string line = std::string("  ") + mode_names_[m] + ":";
      for (const Flag& flag : flags_) {
        if ((flag.modes >> m & 1) == 0) {
          continue;
        }
        if (line.size() + 1 + flag.name.size() > 79) {
          fprintf(out, "%s\n", line.c_str());
          line = "     ";
        }
        line += " " + flag.name;
      }
      fprintf(out, "%s\n", line.c_str());
    }
  }

 private:
  struct Flag {
    std::string name;      // "--jobs", or "<servers>" for a positional
    const char* spelling;  // "--jobs=<N>"
    const char* help;
    Modes modes;
    std::function<bool(const std::string&)> parse;
  };

  static std::string NameOf(const std::string& spelling) {
    return spelling.substr(0, spelling.find('='));
  }

  template <typename T>
  static bool Store(const std::string& name, const std::string& text, T* out) {
    const char* expected = "a non-negative integer";
    if constexpr (std::is_same_v<T, bool>) {
      *out = true;
      return true;
    } else if constexpr (std::is_same_v<T, std::string>) {
      *out = text;
      return true;
    } else if constexpr (std::is_same_v<T, double>) {
      if (ParseDoubleValue(text, out)) {
        return true;
      }
      expected = "a finite number";
    } else {
      static_assert(std::is_unsigned_v<T>, "flag values are bool, string, double or unsigned");
      uint64_t v = 0;
      if (ParseU64Value(text, &v) && v <= std::numeric_limits<T>::max()) {
        *out = static_cast<T>(v);
        return true;
      }
    }
    fprintf(stderr, "invalid value for %s: '%s' (expected %s)\n", name.c_str(), text.c_str(),
            expected);
    return false;
  }

  // Index of the flag named |name|, or flags_.size().
  size_t Find(const std::string& name) const {
    size_t f = 0;
    while (f < flags_.size() && flags_[f].name != name) {
      ++f;
    }
    return f;
  }

  // Index of the |n|th positional flag, or flags_.size().
  size_t NthPositional(size_t n) const {
    for (size_t f = 0; f < flags_.size(); ++f) {
      if (flags_[f].name[0] == '<' && n-- == 0) {
        return f;
      }
    }
    return flags_.size();
  }

  std::vector<const char*> mode_names_;
  std::vector<Flag> flags_;
  std::vector<std::pair<size_t, std::string>> given_;  // flag index, argument as typed
};

}  // namespace mfc

#endif  // MFC_SRC_CORE_ARG_PARSE_H_
