#include "annot/pragma_parser.hpp"

#include "util/string_util.hpp"

namespace cascabel {

using pdl::util::trim;

std::optional<AccessMode> access_mode_from_string(std::string_view s) {
  if (pdl::util::iequals(s, "read")) return AccessMode::kRead;
  if (pdl::util::iequals(s, "write")) return AccessMode::kWrite;
  if (pdl::util::iequals(s, "readwrite")) return AccessMode::kReadWrite;
  return std::nullopt;
}

std::optional<DistributionKind> distribution_from_string(std::string_view s) {
  if (pdl::util::iequals(s, "block")) return DistributionKind::kBlock;
  if (pdl::util::iequals(s, "cyclic")) return DistributionKind::kCyclic;
  if (pdl::util::iequals(s, "blockcyclic") || pdl::util::iequals(s, "block-cyclic")) {
    return DistributionKind::kBlockCyclic;
  }
  // "WHOLE"/"NONE": the parameter is not decomposed (broadcast to every
  // block task) but still carries extent sizes for registration.
  if (pdl::util::iequals(s, "whole") || pdl::util::iequals(s, "none")) {
    return DistributionKind::kNone;
  }
  return std::nullopt;
}

namespace {

/// Split on top-level ':' — colons nested in parentheses stay put.
std::vector<std::string> split_fields(std::string_view text) {
  std::vector<std::string> out;
  int depth = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == ':' && depth == 0) {
      out.emplace_back(trim(text.substr(start, i - start)));
      start = i + 1;
    }
  }
  out.emplace_back(trim(text.substr(start)));
  return out;
}

/// Strip one balanced pair of outer parentheses, if present.
std::string_view strip_parens(std::string_view s) {
  s = trim(s);
  if (s.size() >= 2 && s.front() == '(' && s.back() == ')') {
    return trim(s.substr(1, s.size() - 2));
  }
  return s;
}

bool is_identifier(std::string_view s) {
  if (s.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_') return false;
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  return true;
}

}  // namespace

PragmaKind classify_pragma(std::string_view text) {
  text = trim(text);
  if (!pdl::util::starts_with(text, "cascabel")) return PragmaKind::kUnknown;
  const std::string_view rest = trim(text.substr(8));
  if (pdl::util::starts_with(rest, "task")) return PragmaKind::kTask;
  if (pdl::util::starts_with(rest, "execute")) return PragmaKind::kExecute;
  return PragmaKind::kUnknown;
}

pdl::util::Result<TaskPragma> parse_task_pragma(std::string_view text) {
  text = trim(text);
  if (!pdl::util::starts_with(text, "cascabel")) {
    return pdl::util::Error{"not a cascabel pragma"};
  }
  std::string_view rest = trim(text.substr(8));
  if (!pdl::util::starts_with(rest, "task")) {
    return pdl::util::Error{"not a cascabel task pragma"};
  }
  rest = trim(rest.substr(4));
  if (!rest.empty() && rest.front() == ':') rest = rest.substr(1);

  const auto fields = split_fields(rest);
  if (fields.size() != 4) {
    return pdl::util::Error{
        "task pragma needs 4 ':'-separated fields "
        "(platforms : interface : name : (params)), got " +
        std::to_string(fields.size())};
  }

  TaskPragma pragma;
  // Split the platform list on top-level commas only: entries of the form
  // pattern(M[Wx2,Wx4]) carry commas of their own (paper §II: variants may
  // state explicit architectural requirements in PDL pattern form).
  {
    int depth = 0;
    std::string current;
    const auto flush = [&] {
      const auto t = trim(current);
      if (!t.empty()) pragma.target_platforms.emplace_back(t);
      current.clear();
    };
    for (char c : fields[0]) {
      if (c == '(') ++depth;
      if (c == ')') --depth;
      if (c == ',' && depth == 0) {
        flush();
        continue;
      }
      current += c;
    }
    flush();
  }
  if (pragma.target_platforms.empty()) {
    return pdl::util::Error{"task pragma: empty targetplatformlist"};
  }
  pragma.task_interface = fields[1];
  if (!is_identifier(pragma.task_interface)) {
    return pdl::util::Error{"task pragma: invalid taskidentifier '" + fields[1] + "'"};
  }
  pragma.variant_name = fields[2];
  if (!is_identifier(pragma.variant_name)) {
    return pdl::util::Error{"task pragma: invalid taskname '" + fields[2] + "'"};
  }

  const std::string_view params = strip_parens(fields[3]);
  for (const auto& entry : pdl::util::split_trimmed(params, ',')) {
    const auto colon = entry.find(':');
    if (colon == std::string::npos) {
      return pdl::util::Error{"task pragma: parameter '" + entry +
                              "' lacks an access specifier"};
    }
    ParamSpec spec;
    spec.name = std::string(trim(std::string_view(entry).substr(0, colon)));
    const auto mode = access_mode_from_string(
        trim(std::string_view(entry).substr(colon + 1)));
    if (!is_identifier(spec.name)) {
      return pdl::util::Error{"task pragma: invalid parameter name '" + spec.name + "'"};
    }
    if (!mode) {
      return pdl::util::Error{"task pragma: unknown access mode in '" + entry + "'"};
    }
    spec.mode = *mode;
    pragma.params.push_back(std::move(spec));
  }
  return pragma;
}

pdl::util::Result<ExecutePragma> parse_execute_pragma(std::string_view text) {
  text = trim(text);
  if (!pdl::util::starts_with(text, "cascabel")) {
    return pdl::util::Error{"not a cascabel pragma"};
  }
  std::string_view rest = trim(text.substr(8));
  if (!pdl::util::starts_with(rest, "execute")) {
    return pdl::util::Error{"not a cascabel execute pragma"};
  }
  rest = trim(rest.substr(7));

  // Grammar: taskidentifier : executiongroup ( distributions )
  // The distribution list is optional; the group field may directly abut it.
  ExecutePragma pragma;
  std::size_t i = 0;
  while (i < rest.size() && rest[i] != ':' && rest[i] != '(') ++i;
  pragma.task_interface = std::string(trim(rest.substr(0, i)));
  if (!is_identifier(pragma.task_interface)) {
    return pdl::util::Error{"execute pragma: invalid taskidentifier '" +
                            pragma.task_interface + "'"};
  }

  std::string_view tail = trim(rest.substr(i));
  if (!tail.empty() && tail.front() == ':') {
    tail = trim(tail.substr(1));
    std::size_t j = 0;
    while (j < tail.size() && tail[j] != '(') ++j;
    pragma.execution_group = std::string(trim(tail.substr(0, j)));
    if (!is_identifier(pragma.execution_group)) {
      return pdl::util::Error{"execute pragma: invalid executiongroup '" +
                              pragma.execution_group + "'"};
    }
    tail = trim(tail.substr(j));
  }

  if (!tail.empty()) {
    if (tail.front() != '(' || tail.back() != ')') {
      return pdl::util::Error{"execute pragma: malformed distribution list '" +
                              std::string(tail) + "'"};
    }
    const std::string_view dists = strip_parens(tail);
    for (const auto& entry : pdl::util::split_trimmed(dists, ',')) {
      const auto parts = pdl::util::split_trimmed(entry, ':');
      if (parts.empty() || parts.size() > 4) {
        return pdl::util::Error{"execute pragma: malformed distribution '" + entry +
                                "'"};
      }
      DistributionSpec spec;
      spec.param = parts[0];
      if (!is_identifier(spec.param)) {
        return pdl::util::Error{"execute pragma: invalid parameter name '" +
                                spec.param + "'"};
      }
      if (parts.size() >= 2) {
        const auto kind = distribution_from_string(parts[1]);
        if (!kind) {
          return pdl::util::Error{"execute pragma: unknown distribution '" + parts[1] +
                                  "'"};
        }
        spec.kind = *kind;
      }
      for (std::size_t s = 2; s < parts.size(); ++s) spec.sizes.push_back(parts[s]);
      pragma.distributions.push_back(std::move(spec));
    }
  }
  return pragma;
}

}  // namespace cascabel
